package ff

import (
	"context"
	"math/big"

	"dragoon/internal/limb"
	"dragoon/internal/parallel"
)

// The NTT chains and vector pointwise kernels run on the field's Montgomery
// limb backend. FFT/IFFT/CosetFFT/CosetIFFT convert the whole vector to
// limb form once, run every butterfly and scaling step on limbs, and
// convert once on the way out — so an N-point transform pays 2N boundary
// conversions instead of N·log N allocating big.Int reductions.

// pad converts a to limb form, zero-extended to the domain size (nil
// entries count as zero).
func (d *Domain) pad(a []*big.Int) []limb.Element {
	lf := d.F.lf
	out := make([]limb.Element, d.N)
	for i := 0; i < len(a) && i < d.N; i++ {
		if a[i] != nil {
			lf.SetBig(&out[i], a[i])
		}
	}
	return out
}

// unpad converts a limb vector back to fresh big.Ints.
func (d *Domain) unpad(a []limb.Element) []*big.Int {
	lf := d.F.lf
	out := make([]*big.Int, len(a))
	for i := range a {
		out[i] = lf.ToBig(nil, &a[i])
	}
	return out
}

// ntt is an in-place iterative radix-2 Cooley–Tukey transform with the
// given root (ω for forward, ω⁻¹ for inverse).
func (d *Domain) ntt(a []limb.Element, root *big.Int) {
	lf := d.F.lf
	n := len(a)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	var rootL limb.Element
	lf.SetBig(&rootL, root)
	for length := 2; length <= n; length <<= 1 {
		half := length / 2
		var wLen limb.Element
		lf.Exp(&wLen, rootL, big.NewInt(int64(n/length))) // w_len = root^(n/length)
		for start := 0; start < n; start += length {
			w := lf.One()
			for i := 0; i < half; i++ {
				u := a[start+i]
				var v limb.Element
				lf.Mul(&v, &a[start+i+half], &w)
				lf.Add(&a[start+i], &u, &v)
				lf.Sub(&a[start+i+half], &u, &v)
				lf.Mul(&w, &w, &wLen)
			}
		}
	}
}

// FFT evaluates the polynomial with the given coefficients on the domain.
func (d *Domain) FFT(coeffs []*big.Int) []*big.Int {
	a := d.pad(coeffs)
	d.ntt(a, d.root)
	return d.unpad(a)
}

// IFFT interpolates: it maps evaluations on the domain back to
// coefficients.
func (d *Domain) IFFT(evals []*big.Int) []*big.Int {
	lf := d.F.lf
	a := d.pad(evals)
	d.ntt(a, d.rootInv)
	var nInv limb.Element
	lf.SetBig(&nInv, d.nInv)
	for i := range a {
		lf.Mul(&a[i], &a[i], &nInv)
	}
	return d.unpad(a)
}

// CosetFFT evaluates the polynomial on the coset g·⟨ω⟩: scaling
// coefficient i by g^i makes a plain FFT evaluate at g·ω^j.
func (d *Domain) CosetFFT(coeffs []*big.Int) []*big.Int {
	lf := d.F.lf
	a := d.pad(coeffs)
	var g, s limb.Element
	lf.SetBig(&g, d.coset)
	s = lf.One()
	for i := range a {
		lf.Mul(&a[i], &a[i], &s)
		lf.Mul(&s, &s, &g)
	}
	d.ntt(a, d.root)
	return d.unpad(a)
}

// CosetIFFT interpolates from coset evaluations back to coefficients.
func (d *Domain) CosetIFFT(evals []*big.Int) []*big.Int {
	lf := d.F.lf
	a := d.pad(evals)
	d.ntt(a, d.rootInv)
	var gInv, nInv, s limb.Element
	lf.SetBig(&gInv, d.F.Inv(d.coset))
	lf.SetBig(&nInv, d.nInv)
	s = lf.One()
	for i := range a {
		lf.Mul(&a[i], &a[i], &nInv)
		lf.Mul(&a[i], &a[i], &s)
		lf.Mul(&s, &s, &gInv)
	}
	return d.unpad(a)
}

// QuotientPointwise returns out[i] = (a[i]·b[i] − c[i])·k — the QAP
// prover's coset division by the constant vanishing value. The vectors are
// processed in contiguous chunks, one per pool worker, so dispatch overhead
// is paid per chunk rather than per evaluation point; within a chunk the
// limb backend runs the three field operations allocation-free. b and c
// must be at least as long as a.
func (f *Field) QuotientPointwise(a, b, c []*big.Int, k *big.Int) []*big.Int {
	n := len(a)
	out := make([]*big.Int, n)
	if n == 0 {
		return out
	}
	lf := f.lf
	var kL limb.Element
	lf.SetBig(&kL, k)
	_ = parallel.ForSpans(context.Background(), n, 0, func(start, end int) error {
		var av, bv, cv limb.Element
		for i := start; i < end; i++ {
			lf.SetBig(&av, a[i])
			lf.SetBig(&bv, b[i])
			lf.SetBig(&cv, c[i])
			lf.Mul(&av, &av, &bv)
			lf.Sub(&av, &av, &cv)
			lf.Mul(&av, &av, &kL)
			out[i] = lf.ToBig(nil, &av)
		}
		return nil
	})
	return out
}
