package bn254

import (
	"fmt"
	"math/big"
)

// G2 is a point on the sextic twist y² = x³ + 3/ξ over Fp2, in affine
// coordinates. The identity is represented by Inf == true.
type G2 struct {
	X, Y fp2Elem
	Inf  bool
}

// G2Generator returns the standard generator of G2 (the EIP-197 constants).
func G2Generator() *G2 { return params().g2.Clone() }

// G2Infinity returns the identity element of G2.
func G2Infinity() *G2 { return &G2{X: fp2Zero(), Y: fp2Zero(), Inf: true} }

// Clone returns a deep copy of the point.
func (a *G2) Clone() *G2 {
	if a.Inf {
		return G2Infinity()
	}
	return &G2{X: a.X.clone(), Y: a.Y.clone()}
}

// IsInfinity reports whether the point is the identity.
func (a *G2) IsInfinity() bool { return a.Inf }

// Equal reports whether two points are the same group element.
func (a *G2) Equal(b *G2) bool {
	if a.Inf || b.Inf {
		return a.Inf == b.Inf
	}
	return fp2Equal(a.X, b.X) && fp2Equal(a.Y, b.Y)
}

func (a *G2) isOnCurveWith(cp *curveParams) bool {
	if a.Inf {
		return true
	}
	p := cp.P
	lhs := fp2SquareP(a.Y, p)
	rhs := fp2AddP(fp2MulP(fp2SquareP(a.X, p), a.X, p), cp.b2, p)
	return fp2Equal(lhs, rhs)
}

// IsOnCurve reports whether the point satisfies the twist equation.
func (a *G2) IsOnCurve() bool { return a.isOnCurveWith(params()) }

// IsInSubgroup reports whether the point lies in the prime-order-r
// subgroup: r·a, by a double-and-add over the unreduced r, is the identity.
// (ScalarMul would reduce r to 0 and accept every point.)
func (a *G2) IsInSubgroup() bool {
	return a.mul(params().R).IsInfinity()
}

// Neg returns −a.
func (a *G2) Neg() *G2 {
	if a.Inf {
		return G2Infinity()
	}
	return &G2{X: a.X.clone(), Y: fp2NegP(a.Y, params().P)}
}

// Add returns a + b.
func (a *G2) Add(b *G2) *G2 {
	if a.Inf {
		return b.Clone()
	}
	if b.Inf {
		return a.Clone()
	}
	p := params().P
	if fp2Equal(a.X, b.X) {
		if !fp2Equal(a.Y, b.Y) {
			return G2Infinity()
		}
		return a.Double()
	}
	lambda := fp2MulP(fp2SubP(b.Y, a.Y, p), fp2InvP(fp2SubP(b.X, a.X, p), p), p)
	x3 := fp2SubP(fp2SubP(fp2SquareP(lambda, p), a.X, p), b.X, p)
	y3 := fp2SubP(fp2MulP(lambda, fp2SubP(a.X, x3, p), p), a.Y, p)
	return &G2{X: x3, Y: y3}
}

// Double returns 2a.
func (a *G2) Double() *G2 {
	if a.Inf || a.Y.isZero() {
		return G2Infinity()
	}
	p := params().P
	three := fp2FromInt(3)
	num := fp2MulP(three, fp2SquareP(a.X, p), p)
	den := fp2InvP(fp2AddP(a.Y, a.Y, p), p)
	lambda := fp2MulP(num, den, p)
	x3 := fp2SubP(fp2SubP(fp2SquareP(lambda, p), a.X, p), a.X, p)
	y3 := fp2SubP(fp2MulP(lambda, fp2SubP(a.X, x3, p), p), a.Y, p)
	return &G2{X: x3, Y: y3}
}

// Sub returns a − b.
func (a *G2) Sub(b *G2) *G2 { return a.Add(b.Neg()) }

// ScalarMul returns k·a (the scalar is reduced mod r). The ladder runs in
// Jacobian coordinates — one Fp2 inversion total instead of one per
// addition step.
func (a *G2) ScalarMul(k *big.Int) *G2 {
	return a.mul(new(big.Int).Mod(k, params().R))
}

// mul returns s·a for s ≥ 0, without reducing s modulo r.
func (a *G2) mul(s *big.Int) *G2 {
	if s.Sign() == 0 || a.Inf {
		return G2Infinity()
	}
	p := params().P
	acc := g2JacInfinity()
	for i := s.BitLen() - 1; i >= 0; i-- {
		acc = g2JacDouble(acc, p)
		if s.Bit(i) == 1 {
			acc = g2JacAddMixed(acc, a, p)
		}
	}
	return acc.affine()
}

// G2ScalarBaseMul returns k·H for the standard G2 generator H, using a
// precomputed fixed-base window table.
func G2ScalarBaseMul(k *big.Int) *G2 { return g2FixedBaseMul(k) }

// Marshal encodes the point as 128 bytes (X.A1 ‖ X.A0 ‖ Y.A1 ‖ Y.A0, 32-byte
// big-endian each), matching the EVM pairing-precompile convention of
// imaginary-part-first. The identity encodes as all zeros.
func (a *G2) Marshal() []byte {
	out := make([]byte, 128)
	if a.Inf {
		return out
	}
	a.X.A1.FillBytes(out[0:32])
	a.X.A0.FillBytes(out[32:64])
	a.Y.A1.FillBytes(out[64:96])
	a.Y.A0.FillBytes(out[96:128])
	return out
}

// UnmarshalG2 decodes a point produced by Marshal, validating that each
// coordinate is below p, membership of the twist curve and of the order-r
// subgroup. Every rejection matches ErrInvalidPoint under errors.Is.
func UnmarshalG2(data []byte) (*G2, error) {
	if len(data) != 128 {
		return nil, fmt.Errorf("%w: G2 encoding of %d bytes, want 128", ErrInvalidPoint, len(data))
	}
	var c [4]*big.Int
	for i := range c {
		c[i] = new(big.Int).SetBytes(data[32*i : 32*(i+1)])
		if c[i].Cmp(params().P) >= 0 {
			return nil, fmt.Errorf("%w: G2 coordinate not below p", ErrInvalidPoint)
		}
	}
	pt := &G2{X: fp2Elem{A1: c[0], A0: c[1]}, Y: fp2Elem{A1: c[2], A0: c[3]}}
	if pt.X.isZero() && pt.Y.isZero() {
		return G2Infinity(), nil
	}
	if !pt.IsOnCurve() {
		return nil, fmt.Errorf("%w: G2 point not on the twist", ErrInvalidPoint)
	}
	if !pt.IsInSubgroup() {
		return nil, fmt.Errorf("%w: G2 point outside the order-r subgroup", ErrInvalidPoint)
	}
	return pt, nil
}

// String implements fmt.Stringer for debugging output.
func (a *G2) String() string {
	if a.Inf {
		return "G2(inf)"
	}
	return fmt.Sprintf("G2((%s,%s), (%s,%s))",
		a.X.A0.Text(16), a.X.A1.Text(16), a.Y.A0.Text(16), a.Y.A1.Text(16))
}
