// Package ff provides finite-field and polynomial utilities over prime
// fields — in particular the BN254 scalar field — for the zk-SNARK baseline
// (the paper's "generic ZKP" comparator): modular arithmetic helpers, a
// radix-2 number-theoretic transform over two-adic fields, and coset
// evaluation, which the QAP divisor computation in Groth16 needs.
package ff

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"dragoon/internal/limb"
)

// Field is a prime field Z_p. Methods allocate fresh big.Ints; arguments
// are never mutated.
type Field struct {
	p *big.Int
	// lf is the Montgomery-limb backend for p. It carries the NTT
	// butterflies and vector pointwise kernels; the scalar big.Int methods
	// remain the reference semantics.
	lf *limb.Field
}

// New returns the field Z_p. The modulus must be an odd prime that the
// 4×64 limb kernel accepts (see internal/limb); New panics otherwise.
// Primality is not checked: callers pass curve orders.
func New(p *big.Int) *Field {
	return &Field{p: new(big.Int).Set(p), lf: limb.MustField(p)}
}

// Modulus returns a copy of p.
func (f *Field) Modulus() *big.Int { return new(big.Int).Set(f.p) }

// Zero returns 0.
func (f *Field) Zero() *big.Int { return new(big.Int) }

// One returns 1.
func (f *Field) One() *big.Int { return big.NewInt(1) }

// Reduce maps an arbitrary integer into [0, p).
func (f *Field) Reduce(a *big.Int) *big.Int {
	return new(big.Int).Mod(a, f.p)
}

// Add returns a+b mod p.
func (f *Field) Add(a, b *big.Int) *big.Int {
	s := new(big.Int).Add(a, b)
	if s.Cmp(f.p) >= 0 {
		s.Sub(s, f.p)
	}
	return s
}

// Sub returns a−b mod p.
func (f *Field) Sub(a, b *big.Int) *big.Int {
	s := new(big.Int).Sub(a, b)
	if s.Sign() < 0 {
		s.Add(s, f.p)
	}
	return s
}

// Mul returns a·b mod p.
func (f *Field) Mul(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), f.p)
}

// Neg returns −a mod p.
func (f *Field) Neg(a *big.Int) *big.Int {
	if a.Sign() == 0 {
		return new(big.Int)
	}
	return new(big.Int).Sub(f.p, a)
}

// Inv returns a⁻¹ mod p (undefined for 0; returns nil like big.ModInverse).
func (f *Field) Inv(a *big.Int) *big.Int {
	return new(big.Int).ModInverse(a, f.p)
}

// Exp returns a^e mod p.
func (f *Field) Exp(a, e *big.Int) *big.Int {
	return new(big.Int).Exp(a, e, f.p)
}

// Rand samples a uniform element from r (crypto/rand if nil).
func (f *Field) Rand(r io.Reader) (*big.Int, error) {
	if r == nil {
		r = rand.Reader
	}
	v, err := rand.Int(r, f.p)
	if err != nil {
		return nil, fmt.Errorf("ff: sampling: %w", err)
	}
	return v, nil
}

// TwoAdicity returns s such that p−1 = 2^s · odd.
func (f *Field) TwoAdicity() int {
	t := new(big.Int).Sub(f.p, big.NewInt(1))
	s := 0
	for t.Bit(0) == 0 {
		t.Rsh(t, 1)
		s++
	}
	return s
}

// RootOfUnity returns a primitive 2^k-th root of unity, or an error if the
// field's two-adicity is insufficient.
func (f *Field) RootOfUnity(k int) (*big.Int, error) {
	s := f.TwoAdicity()
	if k > s {
		return nil, fmt.Errorf("ff: field has two-adicity %d < %d", s, k)
	}
	// odd = (p−1)/2^s.
	odd := new(big.Int).Sub(f.p, big.NewInt(1))
	odd.Rsh(odd, uint(s))
	// Find a generator of the 2^s-torsion: c^odd for the first candidate c
	// whose image has full order 2^s.
	for c := int64(2); ; c++ {
		root := f.Exp(big.NewInt(c), odd)
		// root has order dividing 2^s; it has full order iff
		// root^(2^(s-1)) != 1.
		probe := new(big.Int).Set(root)
		for i := 0; i < s-1; i++ {
			probe = f.Mul(probe, probe)
		}
		if probe.Cmp(f.One()) != 0 {
			// Reduce from order 2^s to order 2^k.
			for i := 0; i < s-k; i++ {
				root = f.Mul(root, root)
			}
			return root, nil
		}
	}
}
