// Package group defines the abstract prime-order cyclic group interface that
// all of Dragoon's public-key primitives (exponential ElGamal, verifiable
// decryption, PoQoEA) are built over, together with two backends:
//
//   - the G1 subgroup of BN254 ("BN-128" in the paper), the production
//     instantiation matching §VI ("we choose the cyclic group G by using the
//     G1 subgroup of BN-128 elliptic curve");
//   - a small Schnorr group over Z_q* for fast property-based tests.
//
// Abstracting the group also lets the simulated blockchain wrap a backend
// with a gas-metering decorator, so on-chain proof verification is charged
// exactly per EVM precompile call (ECADD/ECMUL), as on Ethereum.
package group

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Element is an opaque group element. Elements are immutable and must only
// be combined through the Group that created them.
type Element interface {
	// String returns a short debugging representation.
	String() string
}

// Group is a cyclic group of prime order written additively. Implementations
// must be safe for concurrent use.
type Group interface {
	// Name identifies the backend (e.g. "bn254-g1").
	Name() string
	// Order returns the prime group order.
	Order() *big.Int
	// Generator returns the fixed group generator g.
	Generator() Element
	// Identity returns the neutral element.
	Identity() Element
	// Add returns a+b.
	Add(a, b Element) Element
	// Neg returns −a.
	Neg(a Element) Element
	// ScalarMul returns k·a (k reduced modulo the order).
	ScalarMul(a Element, k *big.Int) Element
	// ScalarBaseMul returns k·g.
	ScalarBaseMul(k *big.Int) Element
	// Equal reports whether a and b are the same element.
	Equal(a, b Element) bool
	// IsIdentity reports whether a is the neutral element.
	IsIdentity(a Element) bool
	// Marshal encodes an element canonically.
	Marshal(a Element) []byte
	// Unmarshal decodes an element, validating group membership.
	Unmarshal(data []byte) (Element, error)
	// ElementLen returns the fixed byte length of marshaled elements.
	ElementLen() int
}

// MultiScalarMuler is an optional Group extension for backends with a native
// multi-scalar multiplication. Callers folding many verification equations
// into one sum (package batch) probe for it with a type assertion; backends
// without it fall back to a generic interface-level Pippenger. nil points
// and nil scalars must be skipped.
type MultiScalarMuler interface {
	// MultiScalarMul returns Σ scalars[i]·points[i].
	MultiScalarMul(points []Element, scalars []*big.Int) Element
}

// ScalarMulManyAdder is an optional Group extension for backends with a
// batch variable-base kernel. Callers multiplying many points at once
// (fixed-base handles without a table, requester decryption) probe for it
// with a type assertion and fall back to ScalarMul and Add without it;
// metered decorators do not implement it, so every multiplication they
// serve is charged on its own.
type ScalarMulManyAdder interface {
	// ScalarMulManyAdd returns ks[i]·points[i] + addends[i] for every i.
	// A nil scalar counts as zero; addends may be nil, or hold nil
	// entries, for no addend. Passing the same point or scalar pointer
	// for consecutive entries lets the backend share work between them.
	ScalarMulManyAdd(points []Element, ks []*big.Int, addends []Element) []Element
}

// ErrWrongGroup is returned when an element from another backend is passed in.
var ErrWrongGroup = errors.New("group: element belongs to a different group")

// RandomScalar samples a uniform scalar in [0, order) from r (crypto/rand
// if r is nil).
func RandomScalar(g Group, r io.Reader) (*big.Int, error) {
	if r == nil {
		r = rand.Reader
	}
	k, err := rand.Int(r, g.Order())
	if err != nil {
		return nil, fmt.Errorf("group: sampling scalar: %w", err)
	}
	return k, nil
}

// Sub returns a−b.
func Sub(g Group, a, b Element) Element {
	return g.Add(a, g.Neg(b))
}
