package bn254

import "math/big"

// g2Jac is an internal Jacobian-coordinate point on the twist, over Fp2
// ((X/Z², Y/Z³); Z = 0 encodes the identity). It exists so
// G2 scalar multiplication and the G2 fixed-base table accumulate without
// an Fp2 inversion per addition — affine twist additions each cost a field
// inversion, which dominated the trusted setup's per-wire G2 work.
type g2Jac struct {
	X, Y, Z fp2Elem
}

func g2JacInfinity() g2Jac {
	return g2Jac{X: fp2One(), Y: fp2One(), Z: fp2Zero()}
}

func (a *G2) jacobian() g2Jac {
	if a.Inf {
		return g2JacInfinity()
	}
	return g2Jac{X: a.X.clone(), Y: a.Y.clone(), Z: fp2One()}
}

func (j g2Jac) affine() *G2 {
	if j.Z.isZero() {
		return G2Infinity()
	}
	p := params().P
	zi := fp2InvP(j.Z, p)
	zi2 := fp2SquareP(zi, p)
	zi3 := fp2MulP(zi2, zi, p)
	return &G2{X: fp2MulP(j.X, zi2, p), Y: fp2MulP(j.Y, zi3, p)}
}

// g2JacDouble doubles a Jacobian twist point (a = 0 doubling formulas,
// identical to jacLDouble with Fp2 arithmetic).
func g2JacDouble(j g2Jac, p *big.Int) g2Jac {
	if j.Z.isZero() || j.Y.isZero() {
		return g2JacInfinity()
	}
	a := fp2SquareP(j.X, p)
	b := fp2SquareP(j.Y, p)
	c := fp2SquareP(b, p)
	t := fp2AddP(j.X, b, p)
	d := fp2SubP(fp2SubP(fp2SquareP(t, p), a, p), c, p)
	d = fp2AddP(d, d, p)
	e := fp2AddP(fp2AddP(a, a, p), a, p)
	f := fp2SquareP(e, p)
	x3 := fp2SubP(f, fp2AddP(d, d, p), p)
	c8 := fp2AddP(c, c, p)
	c8 = fp2AddP(c8, c8, p)
	c8 = fp2AddP(c8, c8, p)
	y3 := fp2SubP(fp2MulP(e, fp2SubP(d, x3, p), p), c8, p)
	z3 := fp2MulP(fp2AddP(j.Y, j.Y, p), j.Z, p)
	return g2Jac{X: x3, Y: y3, Z: z3}
}

// g2JacAdd adds two Jacobian twist points (general addition).
func g2JacAdd(a, b g2Jac, p *big.Int) g2Jac {
	if a.Z.isZero() {
		return b
	}
	if b.Z.isZero() {
		return a
	}
	z1z1 := fp2SquareP(a.Z, p)
	z2z2 := fp2SquareP(b.Z, p)
	u1 := fp2MulP(a.X, z2z2, p)
	u2 := fp2MulP(b.X, z1z1, p)
	s1 := fp2MulP(fp2MulP(a.Y, b.Z, p), z2z2, p)
	s2 := fp2MulP(fp2MulP(b.Y, a.Z, p), z1z1, p)
	if fp2Equal(u1, u2) {
		if fp2Equal(s1, s2) {
			return g2JacDouble(a, p)
		}
		return g2JacInfinity()
	}
	h := fp2SubP(u2, u1, p)
	h2 := fp2SquareP(h, p)
	h3 := fp2MulP(h, h2, p)
	v := fp2MulP(u1, h2, p)
	r := fp2SubP(s2, s1, p)
	x3 := fp2SubP(fp2SubP(fp2SquareP(r, p), h3, p), fp2AddP(v, v, p), p)
	y3 := fp2SubP(fp2MulP(r, fp2SubP(v, x3, p), p), fp2MulP(s1, h3, p), p)
	z3 := fp2MulP(fp2MulP(a.Z, b.Z, p), h, p)
	return g2Jac{X: x3, Y: y3, Z: z3}
}

// g2JacAddMixed adds an affine twist point b to a Jacobian point j.
func g2JacAddMixed(j g2Jac, b *G2, p *big.Int) g2Jac {
	if b.Inf {
		return j
	}
	if j.Z.isZero() {
		return b.jacobian()
	}
	z1z1 := fp2SquareP(j.Z, p)
	u2 := fp2MulP(b.X, z1z1, p)
	s2 := fp2MulP(fp2MulP(b.Y, j.Z, p), z1z1, p)
	if fp2Equal(u2, j.X) {
		if fp2Equal(s2, j.Y) {
			return g2JacDouble(j, p)
		}
		return g2JacInfinity()
	}
	h := fp2SubP(u2, j.X, p)
	hh := fp2SquareP(h, p)
	hhh := fp2MulP(h, hh, p)
	v := fp2MulP(j.X, hh, p)
	r := fp2SubP(s2, j.Y, p)
	x3 := fp2SubP(fp2SubP(fp2SquareP(r, p), hhh, p), fp2AddP(v, v, p), p)
	y3 := fp2SubP(fp2MulP(r, fp2SubP(v, x3, p), p), fp2MulP(j.Y, hhh, p), p)
	z3 := fp2MulP(j.Z, h, p)
	return g2Jac{X: x3, Y: y3, Z: z3}
}

// g2BatchAffine normalizes a batch of Jacobian twist points with a single
// Fp2 inversion (Montgomery's trick over Fp2, mirroring batchAffineLAff).
func g2BatchAffine(js []g2Jac) []*G2 {
	p := params().P
	out := make([]*G2, len(js))
	prefix := make([]fp2Elem, 0, len(js))
	live := make([]int, 0, len(js))
	acc := fp2One()
	for i, j := range js {
		if j.Z.isZero() {
			out[i] = G2Infinity()
			continue
		}
		prefix = append(prefix, acc)
		live = append(live, i)
		acc = fp2MulP(acc, j.Z, p)
	}
	if len(live) == 0 {
		return out
	}
	inv := fp2InvP(acc, p)
	for n := len(live) - 1; n >= 0; n-- {
		i := live[n]
		zi := fp2MulP(inv, prefix[n], p)
		inv = fp2MulP(inv, js[i].Z, p)
		zi2 := fp2SquareP(zi, p)
		zi3 := fp2MulP(zi2, zi, p)
		out[i] = &G2{X: fp2MulP(js[i].X, zi2, p), Y: fp2MulP(js[i].Y, zi3, p)}
	}
	return out
}
