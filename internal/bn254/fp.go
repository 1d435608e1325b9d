package bn254

import "dragoon/internal/limb"

// Limb arithmetic for G1. A G1 point holds its affine coordinates as
// fpElem, the 4×64-bit Montgomery representation from internal/limb, and
// the Jacobian ladders, Pippenger buckets and fixed-base windows below
// accumulate in g1JacL on the same elements. A scalar multiplication
// therefore takes and returns points without converting them; its
// thousands of field multiplications touch no heap and pay no division,
// and only normalising the result back to affine costs a field inversion
// (one per batch in batchAffine). big.Int appears only at the package's
// edges: scalars, the pairing's Fp12 embedding and String.

// fpElem is a BN254 base-field element in Montgomery limb form.
type fpElem = limb.Element

// g1JacL is a Jacobian G1 point on limbs; Z = 0 encodes the identity (the
// zero value is the identity, which is what makes `var acc g1JacL` a valid
// ladder accumulator).
type g1JacL struct {
	X, Y, Z fpElem
}

// setAffine loads an affine point as Z = 1 Jacobian.
func (j *g1JacL) setAffine(a *G1) {
	if a.Inf {
		*j = g1JacL{}
		return
	}
	j.X, j.Y = a.x, a.y
	j.Z = params().fp.One()
}

// affine normalizes to an affine point: one field inversion (the
// division-free limb EEA), skipped when Z is already 1.
func (j *g1JacL) affine() G1 {
	if j.Z.IsZero() {
		return G1{Inf: true}
	}
	f := params().fp
	if j.Z == f.One() {
		return G1{x: j.X, y: j.Y}
	}
	var zi, zi2 fpElem
	var out G1
	f.Inverse(&zi, &j.Z)
	f.Square(&zi2, &zi)
	f.Mul(&out.x, &j.X, &zi2)
	f.Mul(&zi2, &zi2, &zi) // now 1/Z³
	f.Mul(&out.y, &j.Y, &zi2)
	return out
}

// affineNormalized reads a point normalize has brought to Z = 1, or the
// identity it left at Z = 0.
func (j *g1JacL) affineNormalized() G1 {
	if j.Z.IsZero() {
		return G1{Inf: true}
	}
	return G1{x: j.X, y: j.Y}
}

// jacLDouble doubles j in place (a = 0 doubling, 2M + 5S).
func jacLDouble(j *g1JacL) {
	if j.Z.IsZero() || j.Y.IsZero() {
		*j = g1JacL{}
		return
	}
	f := params().fp
	var a, b, c, d, e, t fpElem
	f.Square(&a, &j.X) // A = X²
	f.Square(&b, &j.Y) // B = Y²
	f.Square(&c, &b)   // C = B²
	f.Add(&d, &j.X, &b)
	f.Square(&d, &d)
	f.Sub(&d, &d, &a)
	f.Sub(&d, &d, &c)
	f.Double(&d, &d) // D = 2((X+B)² − A − C)
	f.Double(&e, &a)
	f.Add(&e, &e, &a) // E = 3A
	f.Square(&t, &e)  // F = E²
	var x3 fpElem
	f.Double(&x3, &d)
	f.Sub(&x3, &t, &x3) // X3 = F − 2D
	f.Double(&c, &c)
	f.Double(&c, &c)
	f.Double(&c, &c) // 8C
	f.Sub(&t, &d, &x3)
	f.Mul(&t, &e, &t)
	f.Sub(&t, &t, &c) // Y3 = E(D − X3) − 8C
	f.Double(&b, &j.Y)
	f.Mul(&j.Z, &b, &j.Z) // Z3 = 2Y·Z
	j.X, j.Y = x3, t
}

// jacLAddMixed sets j = j + b in place, with b affine (7M + 4S).
func jacLAddMixed(j *g1JacL, b *G1) {
	if !b.Inf {
		jacLAddAffine(j, &b.x, &b.y)
	}
}

// jacLAddAffine sets j = j + (x, y) in place, for a finite affine point.
func jacLAddAffine(j *g1JacL, x, y *fpElem) {
	f := params().fp
	if j.Z.IsZero() {
		j.X, j.Y, j.Z = *x, *y, f.One()
		return
	}
	var z1z1, u2, s2 fpElem
	f.Square(&z1z1, &j.Z)
	f.Mul(&u2, x, &z1z1)
	f.Mul(&s2, y, &j.Z)
	f.Mul(&s2, &s2, &z1z1)
	if u2.Equal(&j.X) {
		if s2.Equal(&j.Y) {
			jacLDouble(j)
			return
		}
		*j = g1JacL{} // (x, y) = −j
		return
	}
	var h, hh, v, r, t fpElem
	f.Sub(&h, &u2, &j.X)
	f.Square(&hh, &h)
	f.Mul(&u2, &h, &hh) // u2 now H³
	f.Mul(&v, &j.X, &hh)
	f.Sub(&r, &s2, &j.Y)
	var x3 fpElem
	f.Square(&x3, &r)
	f.Sub(&x3, &x3, &u2)
	f.Double(&t, &v)
	f.Sub(&x3, &x3, &t) // X3 = R² − H³ − 2V
	f.Sub(&t, &v, &x3)
	f.Mul(&t, &r, &t)
	f.Mul(&s2, &j.Y, &u2) // s2 now Y1·H³
	f.Sub(&t, &t, &s2)    // Y3 = R(V − X3) − Y1·H³
	f.Mul(&j.Z, &j.Z, &h)
	j.X, j.Y = x3, t
}

// jacLAdd sets a = a + b in place (general Jacobian addition; handles
// doubling and inverse pairs).
func jacLAdd(a, b *g1JacL) {
	if b.Z.IsZero() {
		return
	}
	if a.Z.IsZero() {
		*a = *b
		return
	}
	f := params().fp
	var z1z1, z2z2, u1, u2, s1, s2 fpElem
	f.Square(&z1z1, &a.Z)
	f.Square(&z2z2, &b.Z)
	f.Mul(&u1, &a.X, &z2z2)
	f.Mul(&u2, &b.X, &z1z1)
	f.Mul(&s1, &a.Y, &b.Z)
	f.Mul(&s1, &s1, &z2z2)
	f.Mul(&s2, &b.Y, &a.Z)
	f.Mul(&s2, &s2, &z1z1)
	if u1.Equal(&u2) {
		if s1.Equal(&s2) {
			jacLDouble(a)
			return
		}
		*a = g1JacL{}
		return
	}
	var h, h2, v, r, t fpElem
	f.Sub(&h, &u2, &u1)
	f.Square(&h2, &h)
	f.Mul(&u2, &h, &h2) // u2 now H³
	f.Mul(&v, &u1, &h2)
	f.Sub(&r, &s2, &s1)
	var x3 fpElem
	f.Square(&x3, &r)
	f.Sub(&x3, &x3, &u2)
	f.Double(&t, &v)
	f.Sub(&x3, &x3, &t)
	f.Sub(&t, &v, &x3)
	f.Mul(&t, &r, &t)
	f.Mul(&s1, &s1, &u2) // s1 now S1·H³
	f.Sub(&t, &t, &s1)
	f.Mul(&a.Z, &a.Z, &b.Z)
	f.Mul(&a.Z, &a.Z, &h)
	a.X, a.Y = x3, t
}

// normalize brings every point of js to Z = 1 in place, leaving the
// identity at Z = 0, with one field inversion for the whole slice
// (Montgomery's trick, limb.BatchInvert). zs and scratch hold at least
// len(js) elements each.
func normalize(js []g1JacL, zs, scratch []fpElem) {
	f := params().fp
	zs = zs[:len(js)]
	for i := range js {
		zs[i] = js[i].Z
	}
	f.BatchInvert(zs, scratch)
	one := f.One()
	for i := range js {
		if zs[i].IsZero() {
			continue
		}
		var zi2 fpElem
		f.Square(&zi2, &zs[i])
		f.Mul(&js[i].X, &js[i].X, &zi2)
		f.Mul(&zi2, &zi2, &zs[i])
		f.Mul(&js[i].Y, &js[i].Y, &zi2)
		js[i].Z = one
	}
}

// batchAffine normalizes a batch of limb Jacobian points to affine points
// with a single field inversion (normalize); identity points come back as
// the affine identity. js is left normalized.
func batchAffine(js []g1JacL) []G1 {
	zs := make([]fpElem, 2*len(js))
	normalize(js, zs[:len(js)], zs[len(js):])
	out := make([]G1, len(js))
	for i := range js {
		out[i] = js[i].affineNormalized()
	}
	return out
}
