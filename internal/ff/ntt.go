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
