package bn254

import (
	"errors"
	"fmt"
	"math/big"
)

// G1 is a point on the curve y² = x³ + 3 over Fp, in affine coordinates held
// as Montgomery limbs. The point at infinity is represented by Inf == true
// (its coordinates are then zero). G1 values are immutable: all methods
// return fresh points.
type G1 struct {
	x, y fpElem
	Inf  bool
}

// G1Generator returns the standard generator (1, 2) of G1.
func G1Generator() *G1 {
	g := params().g1
	return &g
}

// G1Infinity returns the identity element of G1.
func G1Infinity() *G1 { return &G1{Inf: true} }

// IsInfinity reports whether the point is the identity.
func (a *G1) IsInfinity() bool { return a.Inf }

// Equal reports whether two points are the same group element.
func (a *G1) Equal(b *G1) bool {
	if a.Inf || b.Inf {
		return a.Inf == b.Inf
	}
	return a.x == b.x && a.y == b.y
}

// IsOnCurve reports whether the point satisfies y² = x³ + 3 (the identity is
// considered on the curve).
func (a *G1) IsOnCurve() bool {
	if a.Inf {
		return true
	}
	cp := params()
	var lhs, rhs fpElem
	cp.fp.Square(&lhs, &a.y)
	cp.fp.Square(&rhs, &a.x)
	cp.fp.Mul(&rhs, &rhs, &a.x)
	cp.fp.Add(&rhs, &rhs, &cp.b)
	return lhs == rhs
}

// Neg returns −a.
func (a *G1) Neg() *G1 {
	n := *a
	params().fp.Neg(&n.y, &a.y)
	return &n
}

// Add returns a + b.
func (a *G1) Add(b *G1) *G1 {
	var j g1JacL
	j.setAffine(a)
	jacLAddMixed(&j, b)
	sum := j.affine()
	return &sum
}

// ScalarMul returns k·a. The scalar is reduced modulo the group order, so
// negative scalars behave as their additive inverses. The multiplication
// runs through the GLV endomorphism split (see glv.go).
func (a *G1) ScalarMul(k *big.Int) *G1 {
	cp := params()
	s := new(big.Int).Mod(k, cp.R)
	if s.Sign() == 0 || a.Inf {
		return G1Infinity()
	}
	if res := a.glvMul(s); res != nil {
		return res
	}
	return genericScalarMul(a, s)
}

// G1ScalarBaseMul returns k·G for the standard generator G, using a
// precomputed fixed-base window table (~6× faster than a generic scalar
// multiplication).
func G1ScalarBaseMul(k *big.Int) *G1 { return g1FixedBaseMul(k) }

// Marshal encodes the point as 64 bytes (32-byte big-endian X ‖ Y); the
// identity encodes as 64 zero bytes, matching the EVM precompile convention.
func (a *G1) Marshal() []byte {
	out := make([]byte, 64)
	if a.Inf {
		return out
	}
	f := params().fp
	x, y := f.Bytes32(&a.x), f.Bytes32(&a.y)
	copy(out[:32], x[:])
	copy(out[32:], y[:])
	return out
}

// ErrInvalidPoint is returned when decoding bytes that encode no point: a
// wrong length, a coordinate ≥ p, or a pair off the curve.
var ErrInvalidPoint = errors.New("bn254: invalid point encoding")

// UnmarshalG1 decodes a point produced by Marshal, validating the length,
// that each coordinate is below p, and curve membership. Every rejection
// matches ErrInvalidPoint under errors.Is.
func UnmarshalG1(data []byte) (*G1, error) {
	if len(data) != 64 {
		return nil, fmt.Errorf("%w: G1 encoding of %d bytes, want 64", ErrInvalidPoint, len(data))
	}
	f := params().fp
	pt := new(G1)
	if f.SetBytes32(&pt.x, data[:32]) != nil || f.SetBytes32(&pt.y, data[32:]) != nil {
		return nil, ErrInvalidPoint
	}
	if pt.x.IsZero() && pt.y.IsZero() {
		pt.Inf = true
		return pt, nil
	}
	if !pt.IsOnCurve() {
		return nil, ErrInvalidPoint
	}
	return pt, nil
}

// bigAffine returns the affine coordinates as big.Ints in [0, p), for the
// pairing's Fp12 embedding and String; the point must be finite.
func (a *G1) bigAffine() (x, y *big.Int) {
	f := params().fp
	return f.ToBig(nil, &a.x), f.ToBig(nil, &a.y)
}

// String implements fmt.Stringer for debugging output.
func (a *G1) String() string {
	if a.Inf {
		return "G1(inf)"
	}
	x, y := a.bigAffine()
	return fmt.Sprintf("G1(%s, %s)", x.Text(16), y.Text(16))
}
