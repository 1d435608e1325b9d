package ff

import (
	"context"
	"math/big"

	"dragoon/internal/limb"
	"dragoon/internal/parallel"
)

// Limb-arithmetic paths for the NTT chains and vector pointwise kernels.
// The public FFT/IFFT/CosetFFT/CosetIFFT methods convert the whole vector
// to Montgomery limb form once, run every butterfly and scaling step on
// limbs, and convert once on the way out — so an N-point transform pays 2N
// boundary conversions instead of N·log N allocating big.Int reductions.
// The toggle is internal/limb's process-wide switch, shared with
// internal/bn254's SetLimbArithmetic.

// limbActive reports whether this domain's transforms run on limbs: the
// modulus must fit the 4×64 kernel and the backend must be enabled.
func (d *Domain) limbActive() bool { return d.F.lf != nil && limb.Enabled() }

// padLimb is pad in limb form: a copy of a, zero-extended to the domain
// size (nil entries count as zero).
func (d *Domain) padLimb(a []*big.Int) []limb.Element {
	lf := d.F.lf
	out := make([]limb.Element, d.N)
	for i := 0; i < len(a) && i < d.N; i++ {
		if a[i] != nil {
			lf.SetBig(&out[i], a[i])
		}
	}
	return out
}

// unpadLimb converts a limb vector back to fresh big.Ints.
func (d *Domain) unpadLimb(a []limb.Element) []*big.Int {
	lf := d.F.lf
	out := make([]*big.Int, len(a))
	for i := range a {
		out[i] = lf.ToBig(nil, &a[i])
	}
	return out
}

// nttLimb is the limb twin of ntt: an in-place iterative radix-2
// Cooley–Tukey transform with the given root.
func (d *Domain) nttLimb(a []limb.Element, root *big.Int) {
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

func (d *Domain) fftLimb(coeffs []*big.Int) []*big.Int {
	a := d.padLimb(coeffs)
	d.nttLimb(a, d.root)
	return d.unpadLimb(a)
}

func (d *Domain) ifftLimb(evals []*big.Int) []*big.Int {
	lf := d.F.lf
	a := d.padLimb(evals)
	d.nttLimb(a, d.rootInv)
	var nInv limb.Element
	lf.SetBig(&nInv, d.nInv)
	for i := range a {
		lf.Mul(&a[i], &a[i], &nInv)
	}
	return d.unpadLimb(a)
}

func (d *Domain) cosetFFTLimb(coeffs []*big.Int) []*big.Int {
	lf := d.F.lf
	a := d.padLimb(coeffs)
	var g, s limb.Element
	lf.SetBig(&g, d.coset)
	s = lf.One()
	for i := range a {
		lf.Mul(&a[i], &a[i], &s)
		lf.Mul(&s, &s, &g)
	}
	d.nttLimb(a, d.root)
	return d.unpadLimb(a)
}

func (d *Domain) cosetIFFTLimb(evals []*big.Int) []*big.Int {
	lf := d.F.lf
	a := d.padLimb(evals)
	d.nttLimb(a, d.rootInv)
	var gInv, nInv, s limb.Element
	lf.SetBig(&gInv, d.F.Inv(d.coset))
	lf.SetBig(&nInv, d.nInv)
	s = lf.One()
	for i := range a {
		lf.Mul(&a[i], &a[i], &nInv)
		lf.Mul(&a[i], &a[i], &s)
		lf.Mul(&s, &s, &gInv)
	}
	return d.unpadLimb(a)
}

// QuotientPointwise returns out[i] = (a[i]·b[i] − c[i])·k — the QAP
// prover's coset division by the constant vanishing value. The vectors are
// processed in contiguous chunks, one per pool worker, so dispatch overhead
// is paid per chunk rather than per evaluation point; within a chunk the
// limb backend (when active) runs the three field operations
// allocation-free. b and c must be at least as long as a.
func (f *Field) QuotientPointwise(a, b, c []*big.Int, k *big.Int) []*big.Int {
	n := len(a)
	out := make([]*big.Int, n)
	if n == 0 {
		return out
	}
	useLimb := f.lf != nil && limb.Enabled()
	var kL limb.Element
	if useLimb {
		f.lf.SetBig(&kL, k)
	}
	_ = parallel.ForSpans(context.Background(), n, 0, func(start, end int) error {
		if useLimb {
			var av, bv, cv limb.Element
			for i := start; i < end; i++ {
				f.lf.SetBig(&av, a[i])
				f.lf.SetBig(&bv, b[i])
				f.lf.SetBig(&cv, c[i])
				f.lf.Mul(&av, &av, &bv)
				f.lf.Sub(&av, &av, &cv)
				f.lf.Mul(&av, &av, &kL)
				out[i] = f.lf.ToBig(nil, &av)
			}
			return nil
		}
		for i := start; i < end; i++ {
			out[i] = f.Mul(f.Sub(f.Mul(a[i], b[i]), c[i]), k)
		}
		return nil
	})
	return out
}
