package ff

import (
	"fmt"
	"math/big"
	"math/bits"
)

// Domain is a radix-2 evaluation domain of size N = 2^k with a fixed
// multiplicative coset offset, supporting forward/inverse NTTs and coset
// NTTs. Groth16's quotient-polynomial computation evaluates A·B−C on the
// coset, where the vanishing polynomial Z(x) = x^N − 1 is a nonzero
// constant.
type Domain struct {
	F *Field
	N int

	root    *big.Int // primitive N-th root of unity ω
	rootInv *big.Int
	nInv    *big.Int
	coset   *big.Int // coset offset g (a non-subgroup element)
	cosetN  *big.Int // g^N (so Z(g·ω^i) = g^N − 1 for all i)
}

// NewDomain creates a domain of size n (must be a power of two ≥ 2).
func NewDomain(f *Field, n int) (*Domain, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ff: domain size %d is not a power of two", n)
	}
	k := bits.TrailingZeros(uint(n))
	root, err := f.RootOfUnity(k)
	if err != nil {
		return nil, err
	}
	// Coset offset: the canonical multiplicative generator candidate 5 (or
	// any small non-root); correctness needs only g^N ≠ 1.
	coset := big.NewInt(5)
	cosetN := f.Exp(coset, big.NewInt(int64(n)))
	if cosetN.Cmp(f.One()) == 0 {
		coset = big.NewInt(7)
		cosetN = f.Exp(coset, big.NewInt(int64(n)))
	}
	return &Domain{
		F:       f,
		N:       n,
		root:    root,
		rootInv: f.Inv(root),
		nInv:    f.Inv(big.NewInt(int64(n))),
		coset:   coset,
		cosetN:  cosetN,
	}, nil
}

// Generator returns the domain's primitive N-th root of unity.
func (d *Domain) Generator() *big.Int { return new(big.Int).Set(d.root) }

// VanishingAtCoset returns Z(g·ω^i) = g^N − 1, the constant value of the
// vanishing polynomial on the coset.
func (d *Domain) VanishingAtCoset() *big.Int {
	return d.F.Sub(d.cosetN, d.F.One())
}

// ntt is an in-place iterative radix-2 Cooley–Tukey transform with the
// given root (ω for forward, ω⁻¹ for inverse).
func (d *Domain) ntt(a []*big.Int, root *big.Int) {
	n := len(a)
	// Bit-reversal permutation.
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
	for length := 2; length <= n; length <<= 1 {
		// w_len = root^(n/length).
		wLen := d.F.Exp(root, big.NewInt(int64(n/length)))
		for start := 0; start < n; start += length {
			w := d.F.One()
			for i := 0; i < length/2; i++ {
				u := a[start+i]
				v := d.F.Mul(a[start+i+length/2], w)
				a[start+i] = d.F.Add(u, v)
				a[start+i+length/2] = d.F.Sub(u, v)
				w = d.F.Mul(w, wLen)
			}
		}
	}
}

// pad returns a copy of a extended with zeros to the domain size.
func (d *Domain) pad(a []*big.Int) []*big.Int {
	out := make([]*big.Int, d.N)
	for i := range out {
		if i < len(a) && a[i] != nil {
			out[i] = new(big.Int).Set(a[i])
		} else {
			out[i] = new(big.Int)
		}
	}
	return out
}

// FFT evaluates the polynomial with the given coefficients on the domain.
func (d *Domain) FFT(coeffs []*big.Int) []*big.Int {
	if d.F.lf != nil {
		return d.fftLimb(coeffs)
	}
	a := d.pad(coeffs)
	d.ntt(a, d.root)
	return a
}

// IFFT interpolates: it maps evaluations on the domain back to
// coefficients.
func (d *Domain) IFFT(evals []*big.Int) []*big.Int {
	if d.F.lf != nil {
		return d.ifftLimb(evals)
	}
	a := d.pad(evals)
	d.ntt(a, d.rootInv)
	for i := range a {
		a[i] = d.F.Mul(a[i], d.nInv)
	}
	return a
}

// CosetFFT evaluates the polynomial on the coset g·⟨ω⟩.
func (d *Domain) CosetFFT(coeffs []*big.Int) []*big.Int {
	if d.F.lf != nil {
		return d.cosetFFTLimb(coeffs)
	}
	a := d.pad(coeffs)
	// Scale coefficient i by g^i, then a plain FFT evaluates at g·ω^j.
	s := d.F.One()
	for i := range a {
		a[i] = d.F.Mul(a[i], s)
		s = d.F.Mul(s, d.coset)
	}
	d.ntt(a, d.root)
	return a
}

// CosetIFFT interpolates from coset evaluations back to coefficients.
func (d *Domain) CosetIFFT(evals []*big.Int) []*big.Int {
	if d.F.lf != nil {
		return d.cosetIFFTLimb(evals)
	}
	a := d.pad(evals)
	d.ntt(a, d.rootInv)
	gInv := d.F.Inv(d.coset)
	s := d.F.One()
	for i := range a {
		a[i] = d.F.Mul(a[i], d.F.Mul(d.nInv, s))
		s = d.F.Mul(s, gInv)
	}
	return a
}

// EvalPoly evaluates a coefficient-form polynomial at x (Horner).
func EvalPoly(f *Field, coeffs []*big.Int, x *big.Int) *big.Int {
	acc := f.Zero()
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = f.Mul(acc, x)
		if coeffs[i] != nil {
			acc = f.Add(acc, coeffs[i])
		}
	}
	return acc
}
