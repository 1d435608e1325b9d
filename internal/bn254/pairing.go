package bn254

import (
	"context"
	"math/big"

	"dragoon/internal/parallel"
)

// GT is an element of the pairing target group (the order-r subgroup of
// Fp12*). GT values are immutable.
type GT struct {
	v fp12Elem
}

// GTOne returns the identity of GT.
func GTOne() *GT { return &GT{v: fp12One()} }

// Equal reports whether two GT elements are equal.
func (a *GT) Equal(b *GT) bool { return fp12Equal(a.v, b.v) }

// IsOne reports whether the element is the identity.
func (a *GT) IsOne() bool { return a.v.isOne() }

// Mul returns a·b in GT.
func (a *GT) Mul(b *GT) *GT { return &GT{v: fp12MulP(a.v, b.v, params().P)} }

// Inv returns a⁻¹ in GT.
func (a *GT) Inv() *GT { return &GT{v: fp12InvP(a.v, params().P)} }

// Exp returns a^k in GT (k reduced mod r).
func (a *GT) Exp(k *big.Int) *GT {
	s := new(big.Int).Mod(k, params().R)
	return &GT{v: fp12ExpP(a.v, s, params().P)}
}

// e12Point is a point of E(Fp12): the untwisted image of a G2 point, used by
// the affine Miller loop. Infinite points never occur mid-loop for valid
// prime-order inputs; the loop guards degenerate slopes anyway.
type e12Point struct {
	x, y fp12Elem
}

// untwist maps a twist point (x', y') ∈ E'(Fp2) to E(Fp12) via
// ψ(x', y') = (x'·w², y'·w³), valid because w⁶ = ξ.
func untwist(q *G2, p *big.Int) e12Point {
	x := fp12FromFp2(q.X)
	x = fp12MulByW(x, p)
	x = fp12MulByW(x, p)
	y := fp12FromFp2(q.Y)
	y = fp12MulByW(y, p)
	y = fp12MulByW(y, p)
	y = fp12MulByW(y, p)
	return e12Point{x: x, y: y}
}

// lineDouble evaluates the tangent line at T against the G1 point (px, py)
// and returns (the line value, 2T). px, py are Fp elements embedded in Fp12.
func lineDouble(t e12Point, px, py fp12Elem, p *big.Int) (fp12Elem, e12Point) {
	// λ = 3x²/2y.
	three := fp12FromFp(big.NewInt(3))
	num := fp12MulP(three, fp12MulP(t.x, t.x, p), p)
	den := fp12InvP(fp12AddP(t.y, t.y, p), p)
	lambda := fp12MulP(num, den, p)
	// l(P) = (py − Ty) − λ(px − Tx).
	l := fp12SubP(fp12SubP(py, t.y, p), fp12MulP(lambda, fp12SubP(px, t.x, p), p), p)
	// 2T.
	x3 := fp12SubP(fp12SubP(fp12MulP(lambda, lambda, p), t.x, p), t.x, p)
	y3 := fp12SubP(fp12MulP(lambda, fp12SubP(t.x, x3, p), p), t.y, p)
	return l, e12Point{x: x3, y: y3}
}

// lineAdd evaluates the chord through T and Q against the G1 point (px, py)
// and returns (the line value, T+Q).
func lineAdd(t, q e12Point, px, py fp12Elem, p *big.Int) (fp12Elem, e12Point) {
	// λ = (Qy − Ty)/(Qx − Tx).
	lambda := fp12MulP(fp12SubP(q.y, t.y, p), fp12InvP(fp12SubP(q.x, t.x, p), p), p)
	l := fp12SubP(fp12SubP(py, t.y, p), fp12MulP(lambda, fp12SubP(px, t.x, p), p), p)
	x3 := fp12SubP(fp12SubP(fp12MulP(lambda, lambda, p), t.x, p), q.x, p)
	y3 := fp12SubP(fp12MulP(lambda, fp12SubP(t.x, x3, p), p), t.y, p)
	return l, e12Point{x: x3, y: y3}
}

// frobeniusE12 applies the p^i-power Frobenius endomorphism to an untwisted
// point by raising both coordinates to p^i. It is used only for the two
// fixed-point corrections at the end of the optimal-ate loop, so the plain
// exponentiation cost is acceptable.
func frobeniusE12(q e12Point, power int, p *big.Int) e12Point {
	e := new(big.Int).Exp(p, big.NewInt(int64(power)), nil)
	return e12Point{x: fp12ExpP(q.x, e, p), y: fp12ExpP(q.y, e, p)}
}

// millerLoop computes f_{6u+2,Q}(P) times the two optimal-ate correction
// lines, without the final exponentiation.
func millerLoop(g1 *G1, g2 *G2) fp12Elem {
	cp := params()
	p := cp.P

	q := untwist(g2, p)
	px := fp12FromFp(g1.X)
	py := fp12FromFp(g1.Y)

	f := fp12One()
	t := e12Point{x: q.x.clone(), y: q.y.clone()}
	s := cp.loopCount
	for i := s.BitLen() - 2; i >= 0; i-- {
		var l fp12Elem
		f = fp12SquareP(f, p)
		l, t = lineDouble(t, px, py, p)
		f = fp12MulP(f, l, p)
		if s.Bit(i) == 1 {
			l, t = lineAdd(t, q, px, py, p)
			f = fp12MulP(f, l, p)
		}
	}

	// Optimal-ate corrections: lines through π_p(Q) and −π_{p²}(Q).
	q1 := frobeniusE12(q, 1, p)
	q2 := frobeniusE12(q, 2, p)
	q2.y = fp12NegP(q2.y, p)

	var l fp12Elem
	l, t = lineAdd(t, q1, px, py, p)
	f = fp12MulP(f, l, p)
	l, _ = lineAdd(t, q2, px, py, p)
	f = fp12MulP(f, l, p)
	return f
}

// finalExponentiation raises f to (p¹²−1)/r, mapping the Miller-loop output
// into the order-r subgroup of Fp12*.
func finalExponentiation(f fp12Elem) fp12Elem {
	cp := params()
	return fp12ExpP(f, cp.finalExp, cp.P)
}

// Pair computes the optimal-ate pairing e(P, Q). Pairing with the identity
// in either argument yields the identity of GT.
func Pair(g1 *G1, g2 *G2) *GT {
	if g1.IsInfinity() || g2.IsInfinity() {
		return GTOne()
	}
	return &GT{v: finalExponentiation(millerLoop(g1, g2))}
}

// PairingCheck reports whether ∏ e(Pᵢ, Qᵢ) = 1 for the given point slices.
// This is the operation the EVM pairing precompile exposes, and the one the
// Groth16 verifier needs. Slices must have equal length.
//
// The Miller loops — the dominant cost — run concurrently on the default
// worker pool (see PairingCheckWorkers for an explicit bound); the loop
// outputs are multiplied in index order and share a single final
// exponentiation, so the result is identical to the sequential product.
func PairingCheck(ps []*G1, qs []*G2) bool {
	return PairingCheckWorkers(ps, qs, 0)
}

// PairingCheckWorkers is PairingCheck with an explicit worker bound
// (<= 0 selects the parallel package default).
func PairingCheckWorkers(ps []*G1, qs []*G2, workers int) bool {
	if len(ps) != len(qs) {
		return false
	}
	cp := params()
	loops, err := parallel.Map(context.Background(), len(ps), workers, func(i int) (fp12Elem, error) {
		if ps[i].IsInfinity() || qs[i].IsInfinity() {
			return fp12One(), nil
		}
		return millerLoop(ps[i], qs[i]), nil
	})
	if err != nil {
		return false
	}
	acc := fp12One()
	for _, l := range loops {
		acc = fp12MulP(acc, l, cp.P)
	}
	return finalExponentiation(acc).isOne()
}
