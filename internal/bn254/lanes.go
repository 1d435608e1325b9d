package bn254

import (
	"math/big"
	"math/bits"
	"sync"
	"sync/atomic"
)

// The lane path: eight GLV ladders in lockstep. When a span multiplies
// several points by one scalar (DecryptMany passes every ciphertext of a
// span the same −k), the ladders of eight consecutive entries run one
// sequence of doublings and wNAF digits; only their tables differ. On a
// CPU with AVX-512 F, DQ and IFMA (lanes_amd64.s), one instruction then
// multiplies eight field elements, one per lane, so the eight ladders cost
// about as much as one scalar ladder's field products.
//
// A lane holds an Fp element in radix 2^52: five limbs below 2^52, in
// Montgomery form with R′ = 2^260, its value kept in [0, 2p) and reduced
// only on the way back. A limb element x̃ = x·2^256 mod p enters as
// 16·x̃ = x·2^260 mod p and leaves through a limb multiplication by the raw
// constant 2^252 = 2^256/16.
//
// Everything else — a span's remainder, shorter runs, distinct scalars,
// other CPUs and `-tags purego` builds — runs the scalar ladder, which
// the tests use as the oracle. Results are the same affine points either
// way.

// laneWidth is the number of ladders run in lockstep.
const laneWidth = 8

// laneElem holds eight Fp elements limb-major: limb i of lane l at [i][l].
type laneElem [5][laneWidth]uint64

// laneConsts is what the assembly reads: p and 2p in 52-bit limbs and
// −p⁻¹ mod 2^52. The field offsets are fixed in lanes_amd64.s.
type laneConsts struct {
	p, p2 [5]uint64
	pinv  uint64
}

// laneParams holds the lane constants, derived once from the curve's p.
type laneParams struct {
	c    laneConsts
	p    [4]uint64 // p in 64-bit limbs, to reduce a lane value below p
	one  laneElem  // 1 in every lane: 2^260 mod p
	beta laneElem  // β, the cube root of unity of φ, in every lane
}

var (
	laneOnce sync.Once
	laneVal  *laneParams
	// laneGroups counts the groups of eight entries the lane path has
	// served, for the tests.
	laneGroups atomic.Int64
)

// lanes derives the lane constants once and self-checks the kernel
// against limb arithmetic on fixed inputs. Only call it when laneKernel
// is set.
func lanes() *laneParams {
	laneOnce.Do(func() {
		cp := params()
		lp := &laneParams{}
		mask := new(big.Int).SetUint64(1<<52 - 1)
		p2 := new(big.Int).Lsh(cp.P, 1)
		for i := range lp.c.p {
			lp.c.p[i] = new(big.Int).And(new(big.Int).Rsh(cp.P, uint(52*i)), mask).Uint64()
			lp.c.p2[i] = new(big.Int).And(new(big.Int).Rsh(p2, uint(52*i)), mask).Uint64()
		}
		two52 := new(big.Int).Lsh(big.NewInt(1), 52)
		inv := new(big.Int).ModInverse(cp.P, two52)
		lp.c.pinv = new(big.Int).Sub(two52, inv).Uint64()
		bigToWords(&lp.p, cp.P)
		one := cp.fp.One()
		for l := 0; l < laneWidth; l++ {
			toLane(&lp.one, l, &one)
			toLane(&lp.beta, l, &glv().beta)
		}
		lp.selfCheck()
		laneVal = lp
	})
	return laneVal
}

// bigToWords fills z with the little-endian 64-bit limbs of v < 2^256.
func bigToWords(z *[4]uint64, v *big.Int) {
	mask := new(big.Int).SetUint64(1<<64 - 1)
	for i := range z {
		z[i] = new(big.Int).And(new(big.Int).Rsh(v, uint(64*i)), mask).Uint64()
	}
}

// selfCheck compares vmul, vadd and vsub with the limb field on fixed
// inputs (0, 1, −1, β and a sequence derived from the generator's
// coordinates, paired across the lanes in every rotation) and panics on
// any difference: it catches a constant or kernel that disagrees with the
// curve before any result depends on it.
func (lp *laneParams) selfCheck() {
	f := params().fp
	one := f.One()
	var minusOne fpElem
	f.Neg(&minusOne, &one)
	in := []fpElem{{}, one, minusOne, glv().beta}
	g := params().g1
	for x := g.x; len(in) < 2*laneWidth; {
		f.Mul(&x, &x, &g.y)
		f.Add(&x, &x, &g.x)
		in = append(in, x)
	}
	for shift := 0; shift < len(in); shift++ {
		var a, b, z laneElem
		for l := 0; l < laneWidth; l++ {
			toLane(&a, l, &in[l])
			toLane(&b, l, &in[(l+shift)%len(in)])
		}
		for _, op := range []struct {
			lane func(z, x, y *laneElem, c *laneConsts)
			limb func(z, x, y *fpElem)
		}{{vmul, f.Mul}, {vadd, f.Add}, {vsub, f.Sub}} {
			op.lane(&z, &a, &b, &lp.c)
			for l := 0; l < laneWidth; l++ {
				var want fpElem
				op.limb(&want, &in[l], &in[(l+shift)%len(in)])
				if lp.fromLane(&z, l) != want {
					panic("bn254: lane kernel disagrees with the limb field")
				}
			}
		}
	}
}

// toLane writes the limb element a into lane l of z: 16·a mod p, repacked
// from 4×64 to 5×52 bits.
func toLane(z *laneElem, l int, a *fpElem) {
	f := params().fp
	var t fpElem
	f.Double(&t, a)
	f.Double(&t, &t)
	f.Double(&t, &t)
	f.Double(&t, &t)
	const m = 1<<52 - 1
	z[0][l] = t[0] & m
	z[1][l] = (t[0]>>52 | t[1]<<12) & m
	z[2][l] = (t[1]>>40 | t[2]<<24) & m
	z[3][l] = (t[2]>>28 | t[3]<<36) & m
	z[4][l] = t[3] >> 16
}

// fromLane reads lane l of z back as a canonical limb element: it
// repacks 5×52 to 4×64 bits, reduces below p and divides by 16 with one
// Montgomery multiplication by the raw 2^252.
func (lp *laneParams) fromLane(z *laneElem, l int) fpElem {
	t := fpElem{
		z[0][l] | z[1][l]<<52,
		z[1][l]>>12 | z[2][l]<<40,
		z[2][l]>>24 | z[3][l]<<28,
		z[3][l]>>36 | z[4][l]<<16,
	}
	var u fpElem
	var b uint64
	u[0], b = bits.Sub64(t[0], lp.p[0], 0)
	u[1], b = bits.Sub64(t[1], lp.p[1], b)
	u[2], b = bits.Sub64(t[2], lp.p[2], b)
	u[3], b = bits.Sub64(t[3], lp.p[3], b)
	if b == 0 {
		t = u
	}
	params().fp.Mul(&t, &t, &fpElem{0, 0, 0, 1 << 60})
	return t
}

// laneRunAt reports whether entries i..i+7 of a span have the shape of a
// lane group: each has a finite point and entry i's scalar pointer, which
// is set. The group also needs a recoding that did not fall back.
func laneRunAt(points []*G1, ks []*big.Int, i int) bool {
	if i+laneWidth > len(points) || ks[i] == nil {
		return false
	}
	for l := i; l < i+laneWidth; l++ {
		if isIdentity(points[l]) || ks[l] != ks[i] {
			return false
		}
	}
	return true
}

// hasLaneRun reports whether a span has a lane group on this CPU.
func hasLaneRun(points []*G1, ks []*big.Int) bool {
	if !laneKernel {
		return false
	}
	for i := range points {
		if laneRunAt(points, ks, i) {
			return true
		}
	}
	return false
}

// laneJac is eight Jacobian points in lockstep.
type laneJac struct{ x, y, z laneElem }

// laneEntry is one odd multiple of eight bases: its x, β·x (the x of its
// image under φ, which keeps y), y and −y.
type laneEntry struct{ x, bx, y, ny laneElem }

// laneScratch is the lane path's memory for one span: the tables of the
// group being run, its accumulator, the doubled bases while the tables are
// built, and temporaries.
type laneScratch struct {
	tab [glvTableLen]laneEntry
	acc laneJac
	dbl laneJac
	t   [6]laneElem
	lp  *laneParams
}

func newLaneScratch() *laneScratch { return &laneScratch{lp: lanes()} }

// run sets accs[l] = k·pts[l] for a lane group sharing the recoding sc of
// k, on lanes unless sc fell back or has no digits (k ≡ 0).
func (ls *laneScratch) run(accs []g1JacL, pts []*G1, k *big.Int, sc *glvScalar) {
	switch {
	case sc.fallback:
		for l, p := range pts {
			accs[l] = fallbackMul(p, k)
		}
	case sc.n == 0:
		clear(accs)
	default:
		ls.build(pts)
		ls.finish(accs, pts, sc)
	}
}

// finish runs sc's ladder over the built tables into accs. When an
// addition was exceptional in some lane (store), every entry reruns on
// the scalar ladder over a table of its own.
func (ls *laneScratch) finish(accs []g1JacL, pts []*G1, sc *glvScalar) {
	ls.ladder(sc)
	if ls.store(accs) {
		laneGroups.Add(1)
		return
	}
	for l, p := range pts {
		var t glvTable
		t.build(p)
		accs[l] = t.ladder(sc)
	}
}

// build sets the lane tables to the odd multiples P, 3P, …, 15P of the
// eight finite points, affine, with their images under φ. With D = 2P in
// Jacobian (X, Y, Z), the map (x, y) ↦ (Z²x, Z³y) takes the curve to
// y² = x³ + 3Z⁶, where D is affine; the a = 0 formulas do not read the
// curve's b, so the multiples are mixed additions of D there, and the
// true Z of each is its Z there times D's. A prefix product of those Zs
// and one batched limb inversion of the eight lanes' products normalize
// all 64 points.
func (ls *laneScratch) build(pts []*G1) {
	c := &ls.lp.c
	tab := &ls.tab
	for l, p := range pts {
		toLane(&tab[0].x, l, &p.x)
		toLane(&tab[0].y, l, &p.y)
	}
	ls.acc = laneJac{x: tab[0].x, y: tab[0].y, z: ls.lp.one}
	ls.double()
	ls.dbl = ls.acc
	d := &ls.dbl
	zz, zzz := &ls.t[0], &ls.t[1]
	vmul(zz, &d.z, &d.z, c)
	vmul(zzz, zz, &d.z, c)
	vmul(&tab[0].x, &tab[0].x, zz, c)
	vmul(&tab[0].y, &tab[0].y, zzz, c)
	// Until normalized, an entry keeps its true Z in bx and the prefix
	// product of the true Zs up to it in ny.
	tab[0].bx, tab[0].ny = d.z, d.z
	ls.acc = laneJac{x: tab[0].x, y: tab[0].y, z: ls.lp.one}
	for j := 1; j < glvTableLen; j++ {
		ls.addAffine(&d.x, &d.y)
		e := &tab[j]
		e.x, e.y = ls.acc.x, ls.acc.y
		vmul(&e.bx, &ls.acc.z, &d.z, c)
		vmul(&e.ny, &tab[j-1].ny, &e.bx, c)
	}
	var prods, scratch [laneWidth]fpElem
	for l := range prods {
		prods[l] = ls.lp.fromLane(&tab[glvTableLen-1].ny, l)
	}
	params().fp.BatchInvert(prods[:], scratch[:])
	inv, zi, zi2, zi3 := &ls.t[0], &ls.t[1], &ls.t[2], &ls.t[3]
	for l := range prods {
		toLane(inv, l, &prods[l])
	}
	for j := glvTableLen - 1; j >= 0; j-- {
		e := &tab[j]
		if j > 0 {
			vmul(zi, inv, &tab[j-1].ny, c)
			vmul(inv, inv, &e.bx, c)
		} else {
			*zi = *inv
		}
		vmul(zi2, zi, zi, c)
		vmul(zi3, zi2, zi, c)
		vmul(&e.x, &e.x, zi2, c)
		vmul(&e.y, &e.y, zi3, c)
		vmul(&e.bx, &e.x, &ls.lp.beta, c)
		vsub(&e.ny, &laneElem{}, &e.y, c)
	}
}

// ladder runs sc's digits over the lane tables, leaving k1·Pₗ + k2·φ(Pₗ)
// in lane l of the accumulator. The first nonzero digit loads the
// accumulator, so sc must have one.
func (ls *laneScratch) ladder(sc *glvScalar) {
	started := false
	for i := sc.n - 1; i >= 0; i-- {
		if started {
			ls.double()
		}
		started = ls.addDigit(sc.d1[i], false, started)
		started = ls.addDigit(sc.d2[i], true, started)
	}
}

// addDigit adds d times the tables' bases, or their images under φ when
// phi is set, for a wNAF digit d; the first nonzero digit loads the
// accumulator instead. It reports whether the accumulator is loaded.
func (ls *laneScratch) addDigit(d int8, phi, started bool) bool {
	if d == 0 {
		return started
	}
	e := &ls.tab[max(d, -d)>>1]
	x, y := &e.x, &e.y
	if phi {
		x = &e.bx
	}
	if d < 0 {
		y = &e.ny
	}
	if !started {
		ls.acc = laneJac{x: *x, y: *y, z: ls.lp.one}
		return true
	}
	ls.addAffine(x, y)
	return true
}

// store converts the accumulator's lanes into out and reports whether
// every lane is finite. An addition whose H ≡ 0 (the accumulator equal to
// ± the table entry, which the lockstep formula cannot take) sets its
// lane's Z to 0, and both formulas keep it there, so a false result means
// the group must rerun on the scalar ladder.
func (ls *laneScratch) store(out []g1JacL) bool {
	lp := ls.lp
	for l := range out {
		out[l] = g1JacL{
			X: lp.fromLane(&ls.acc.x, l),
			Y: lp.fromLane(&ls.acc.y, l),
			Z: lp.fromLane(&ls.acc.z, l),
		}
		if out[l].Z.IsZero() {
			return false
		}
	}
	return true
}

// double doubles the accumulator (a = 0; 3M + 4S): S = 4XY², M = 3X²,
// X3 = M² − 2S, Y3 = M(S − X3) − 8Y⁴, Z3 = 2YZ.
func (ls *laneScratch) double() {
	c := &ls.lp.c
	j := &ls.acc
	yy, u, s, m, t, v := &ls.t[0], &ls.t[1], &ls.t[2], &ls.t[3], &ls.t[4], &ls.t[5]
	vmul(yy, &j.y, &j.y, c)
	vadd(u, yy, yy, c) // U = 2Y²
	vmul(s, &j.x, u, c)
	vadd(s, s, s, c) // S = 4XY²
	vmul(m, &j.x, &j.x, c)
	vadd(t, m, m, c)
	vadd(m, t, m, c) // M = 3X²
	vmul(v, u, u, c)
	vadd(v, v, v, c) // 8Y⁴
	vadd(t, &j.y, &j.y, c)
	vmul(&j.z, t, &j.z, c) // Z3 = 2YZ
	vmul(t, m, m, c)
	vsub(t, t, s, c)
	vsub(&j.x, t, s, c) // X3 = M² − 2S
	vsub(t, s, &j.x, c)
	vmul(t, m, t, c)
	vsub(&j.y, t, v, c) // Y3 = M(S − X3) − 8Y⁴
}

// addAffine adds the affine lanes (x, y) to the accumulator (8M + 3S),
// as jacLAddAffine does when neither point is the identity and H ≢ 0.
func (ls *laneScratch) addAffine(x, y *laneElem) {
	c := &ls.lp.c
	j := &ls.acc
	zz, u2, s2, h, hh, r := &ls.t[0], &ls.t[1], &ls.t[2], &ls.t[3], &ls.t[4], &ls.t[5]
	vmul(zz, &j.z, &j.z, c)
	vmul(u2, x, zz, c)
	vmul(s2, y, &j.z, c)
	vmul(s2, s2, zz, c)
	vsub(h, u2, &j.x, c)
	vmul(hh, h, h, c)
	vmul(u2, h, hh, c)    // u2 now H³
	vmul(zz, &j.x, hh, c) // zz now V = X·H²
	vsub(r, s2, &j.y, c)  // R = S2 − Y
	vmul(hh, r, r, c)
	vsub(hh, hh, u2, c)
	vadd(s2, zz, zz, c)
	vsub(hh, hh, s2, c) // X3 = R² − H³ − 2V
	vsub(s2, zz, hh, c)
	vmul(s2, r, s2, c)
	vmul(zz, &j.y, u2, c)
	vsub(&j.y, s2, zz, c)  // Y3 = R(V − X3) − Y·H³
	vmul(&j.z, &j.z, h, c) // Z3 = Z·H
	j.x = *hh
}
