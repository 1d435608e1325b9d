package bn254

import (
	"errors"
	"fmt"
	"math/big"
)

// G1 is a point on the curve y² = x³ + 3 over Fp, in affine coordinates.
// The point at infinity is represented by Inf == true (X and Y then ignored).
// G1 values are immutable: all methods return fresh points.
type G1 struct {
	X, Y *big.Int
	Inf  bool
}

// G1Generator returns the standard generator (1, 2) of G1.
func G1Generator() *G1 { return params().g1.Clone() }

// G1Infinity returns the identity element of G1.
func G1Infinity() *G1 { return &G1{X: new(big.Int), Y: new(big.Int), Inf: true} }

// Clone returns a deep copy of the point.
func (a *G1) Clone() *G1 {
	if a.Inf {
		return G1Infinity()
	}
	return &G1{X: new(big.Int).Set(a.X), Y: new(big.Int).Set(a.Y)}
}

// IsInfinity reports whether the point is the identity.
func (a *G1) IsInfinity() bool { return a.Inf }

// Equal reports whether two points are the same group element.
func (a *G1) Equal(b *G1) bool {
	if a.Inf || b.Inf {
		return a.Inf == b.Inf
	}
	return a.X.Cmp(b.X) == 0 && a.Y.Cmp(b.Y) == 0
}

// IsOnCurve reports whether the point satisfies y² = x³ + 3 (the identity is
// considered on the curve).
func (a *G1) IsOnCurve() bool {
	if a.Inf {
		return true
	}
	p := params().P
	if a.X.Sign() < 0 || a.X.Cmp(p) >= 0 || a.Y.Sign() < 0 || a.Y.Cmp(p) >= 0 {
		return false
	}
	lhs := fpMul(a.Y, a.Y, p)
	rhs := fpAdd(fpMul(fpMul(a.X, a.X, p), a.X, p), params().b, p)
	return lhs.Cmp(rhs) == 0
}

// Neg returns −a.
func (a *G1) Neg() *G1 {
	if a.Inf {
		return G1Infinity()
	}
	return &G1{X: new(big.Int).Set(a.X), Y: fpNeg(a.Y, params().P)}
}

// Add returns a + b.
func (a *G1) Add(b *G1) *G1 {
	if a.Inf {
		return b.Clone()
	}
	if b.Inf {
		return a.Clone()
	}
	p := params().P
	if a.X.Cmp(b.X) == 0 {
		if a.Y.Cmp(b.Y) != 0 {
			return G1Infinity() // a = −b
		}
		return a.Double()
	}
	// λ = (y2 − y1)/(x2 − x1).
	lambda := fpMul(fpSub(b.Y, a.Y, p), fpInv(fpSub(b.X, a.X, p), p), p)
	x3 := fpSub(fpSub(fpMul(lambda, lambda, p), a.X, p), b.X, p)
	y3 := fpSub(fpMul(lambda, fpSub(a.X, x3, p), p), a.Y, p)
	return &G1{X: x3, Y: y3}
}

// Double returns 2a.
func (a *G1) Double() *G1 {
	if a.Inf || a.Y.Sign() == 0 {
		return G1Infinity()
	}
	p := params().P
	// λ = 3x²/(2y).
	num := fpMul(big.NewInt(3), fpMul(a.X, a.X, p), p)
	den := fpInv(fpAdd(a.Y, a.Y, p), p)
	lambda := fpMul(num, den, p)
	x3 := fpSub(fpSub(fpMul(lambda, lambda, p), a.X, p), a.X, p)
	y3 := fpSub(fpMul(lambda, fpSub(a.X, x3, p), p), a.Y, p)
	return &G1{X: x3, Y: y3}
}

// Sub returns a − b.
func (a *G1) Sub(b *G1) *G1 { return a.Add(b.Neg()) }

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
	a.X.FillBytes(out[:32])
	a.Y.FillBytes(out[32:])
	return out
}

// ErrInvalidPoint is returned when decoding a point that is not on the curve.
var ErrInvalidPoint = errors.New("bn254: point is not on the curve")

// UnmarshalG1 decodes a point produced by Marshal, validating curve
// membership.
func UnmarshalG1(data []byte) (*G1, error) {
	if len(data) != 64 {
		return nil, fmt.Errorf("bn254: bad G1 encoding length %d", len(data))
	}
	x := new(big.Int).SetBytes(data[:32])
	y := new(big.Int).SetBytes(data[32:])
	if x.Sign() == 0 && y.Sign() == 0 {
		return G1Infinity(), nil
	}
	pt := &G1{X: x, Y: y}
	if !pt.IsOnCurve() {
		return nil, ErrInvalidPoint
	}
	return pt, nil
}

// String implements fmt.Stringer for debugging output.
func (a *G1) String() string {
	if a.Inf {
		return "G1(inf)"
	}
	return fmt.Sprintf("G1(%s, %s)", a.X.Text(16), a.Y.Text(16))
}
