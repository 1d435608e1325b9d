package bn254

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"sync"

	"dragoon/internal/limb"
)

// GLV endomorphism decomposition for G1 (Gallant–Lambert–Vanstone). BN254
// has j-invariant 0, so the curve admits the efficient endomorphism
//
//	φ(x, y) = (β·x, y)
//
// with β a primitive cube root of unity in Fp; on the order-r subgroup φ
// acts as multiplication by λ, a primitive cube root of unity in Zr. A
// 256-bit scalar multiplication k·P therefore splits into
//
//	k·P = k1·P + k2·φ(P),   k = k1 + k2·λ (mod r),  |k1|, |k2| < 2^128,
//
// and the two half-length multiplications share one doubling chain. Each
// half is recoded in width-5 wNAF: its digits are odd or zero, below 16 in
// magnitude, and any two nonzero ones sit at least five positions apart,
// so a half has about 128/6 nonzero digits. Every digit adds an entry of a
// table of the odd multiples P, 3P, …, 15P (or of their images under φ,
// one field multiplication each), negated by flipping y when the digit is
// negative. One multiplication thus runs ~128 doublings and ~43 mixed
// additions, against ~254 doublings + ~127 additions for plain
// double-and-add.
//
// The kernel works on a span of multiplications kᵢ·Pᵢ + Aᵢ at once: all
// the span's odd-multiple tables are normalized to affine with one field
// inversion, all its results with one more, and a table or a recoding is
// reused when consecutive entries share a point or a scalar (by pointer).
// ScalarMul is the span of one, on buffers on its own stack. Eight
// consecutive entries with finite points and one scalar pointer run their
// ladders in lockstep on CPUs with the lane kernel (lanes.go).
//
// Every constant — β, λ, the reduced lattice basis and the split's
// rounding constants — is derived at first use from the curve parameters
// (square roots of −3 via math/big's ModSqrt, then the extended Euclidean
// algorithm of (r, λ)) and self-verified against the generator, so no
// magic numbers enter the code.

const (
	// glvHalfBits bounds each half of the split; a larger half (never
	// observed: the halves stay below 2^127) fails the soundness check.
	glvHalfBits = 128
	// glvDigits is the longest wNAF of a half: recoding can carry one
	// digit past its top bit.
	glvDigits = glvHalfBits + 1
	// glvWindow is the wNAF width, and glvTableLen the count of odd
	// multiples 1, 3, …, 2^(w−1)−1 its digits select.
	glvWindow   = 5
	glvTableLen = 1 << (glvWindow - 2)
)

type glvParams struct {
	beta   fpElem   // cube root of unity in Fp: φ(x,y) = (β·x, y)
	lambda *big.Int // matching cube root of unity in Zr: φ(P) = λ·P
	// Reduced lattice basis of {(x, y) : x + y·λ ≡ 0 (mod r)}; both
	// vectors have ~√r-size coordinates.
	a1, b1 *big.Int
	a2, b2 *big.Int

	// The fixed-width split. c1 = round(s·b2/r) and c2 = round(−s·b1/r)
	// are computed as ±⌊(s·g + 2^255) / 2^256⌋, with g1 and g2 the
	// magnitudes of round(2^256·b2/r) and round(−2^256·b1/r) and g1Neg
	// and g2Neg their signs; the basis enters k1 = s − c1·a1 − c2·a2 and
	// k2 = −c1·b1 − c2·b2 mod 2^192, in two's complement.
	g1, g2             [3]uint64
	g1Neg, g2Neg       bool
	a1w, b1w, a2w, b2w [3]uint64

	fr      *limb.Field // Zr in Montgomery limb form, for the congruence check
	lambdaM fpElem      // λ in fr's Montgomery form
}

var (
	glvOnce sync.Once
	glvVal  *glvParams
)

// glv computes the GLV constants once, self-verifying against the generator.
func glv() *glvParams {
	glvOnce.Do(func() {
		cp := params()
		p, r := cp.P, cp.R

		// β = (−1 + √−3)/2 in Fp (a root of x² + x + 1).
		g := &glvParams{}
		cp.fp.SetBig(&g.beta, rootOfUnityCube(p))
		// λ: same construction in Zr; two nontrivial roots exist (λ and
		// λ²) and exactly one satisfies φ(G) = λ·G — probe the generator.
		lambda := rootOfUnityCube(r)
		phiG := g.phi(&cp.g1)
		if !genericScalarMul(&cp.g1, lambda).Equal(&phiG) {
			lambda = fpMul(lambda, lambda, r) // the other root
			if !genericScalarMul(&cp.g1, lambda).Equal(&phiG) {
				panic("bn254: no cube root of unity matches the endomorphism")
			}
		}
		g.lambda = lambda

		// Reduced basis via the extended Euclidean algorithm on (r, λ):
		// every remainder rᵢ satisfies sᵢ·r + tᵢ·λ = rᵢ, so (rᵢ, −tᵢ) is
		// a lattice vector; the first remainders below √r give two short,
		// independent ones (GLV'01, "Guide to ECC" Alg. 3.74).
		sqrtR := new(big.Int).Sqrt(r)
		rs := []*big.Int{new(big.Int).Set(r), new(big.Int).Set(lambda)}
		ts := []*big.Int{big.NewInt(0), big.NewInt(1)}
		l := 0
		for i := 1; ; i++ {
			if rs[i].Sign() == 0 {
				panic("bn254: GLV basis search ran out of remainders")
			}
			q, rem := new(big.Int).QuoRem(rs[i-1], rs[i], new(big.Int))
			rs = append(rs, rem)
			ts = append(ts, new(big.Int).Sub(ts[i-1], new(big.Int).Mul(q, ts[i])))
			if rem.Cmp(sqrtR) < 0 {
				l = i // rs[l] is the last remainder ≥ √r
				break
			}
		}
		a1 := new(big.Int).Set(rs[l+1])
		b1 := new(big.Int).Neg(ts[l+1])
		// Second vector: the shorter of (r_l, −t_l) and (r_{l+2}, −t_{l+2}).
		normSq := func(a, b *big.Int) *big.Int {
			return new(big.Int).Add(new(big.Int).Mul(a, a), new(big.Int).Mul(b, b))
		}
		a2 := new(big.Int).Set(rs[l])
		b2 := new(big.Int).Neg(ts[l])
		if len(rs) <= l+2 {
			q, rem := new(big.Int).QuoRem(rs[l], rs[l+1], new(big.Int))
			rs = append(rs, rem)
			ts = append(ts, new(big.Int).Sub(ts[l], new(big.Int).Mul(q, ts[l+1])))
		}
		if normSq(rs[l+2], ts[l+2]).Cmp(normSq(a2, b2)) < 0 {
			a2 = new(big.Int).Set(rs[l+2])
			b2 = new(big.Int).Neg(ts[l+2])
		}
		g.a1, g.b1, g.a2, g.b2 = a1, b1, a2, b2

		// Rounding constants round(±2^256·b/r), and the basis mod 2^192.
		g.g1, g.g1Neg = roundingConst(b2, r)
		g.g2, g.g2Neg = roundingConst(new(big.Int).Neg(b1), r)
		g.a1w, g.b1w = twos192(a1), twos192(b1)
		g.a2w, g.b2w = twos192(a2), twos192(b2)
		g.fr = limb.MustField(r)
		g.fr.SetBig(&g.lambdaM, lambda)
		glvVal = g
	})
	return glvVal
}

// roundingConst returns |round(2^256·b/r)| as limbs and its sign.
func roundingConst(b, r *big.Int) ([3]uint64, bool) {
	num := new(big.Int).Lsh(new(big.Int).Abs(b), 256)
	num.Add(num, new(big.Int).Rsh(r, 1))
	q := num.Quo(num, r)
	if q.BitLen() > 192 {
		panic("bn254: GLV rounding constant exceeds 192 bits")
	}
	return limbs192(q), b.Sign() < 0
}

// twos192 returns v mod 2^192 as limbs (two's complement for v < 0).
func twos192(v *big.Int) [3]uint64 {
	return limbs192(new(big.Int).Mod(v, new(big.Int).Lsh(big.NewInt(1), 192)))
}

// limbs192 returns the low 192 bits of v ≥ 0 as little-endian limbs.
func limbs192(v *big.Int) (out [3]uint64) {
	for i := range out {
		out[i] = new(big.Int).Rsh(v, uint(64*i)).Uint64()
	}
	return out
}

// phi returns φ(a) = (β·x, y); a must be finite.
func (g *glvParams) phi(a *G1) G1 {
	out := G1{y: a.y}
	params().fp.Mul(&out.x, &g.beta, &a.x)
	return out
}

// rootOfUnityCube returns a nontrivial cube root of unity modulo the prime
// m, i.e. a root of x² + x + 1 = 0: (−1 + √−3)/2.
func rootOfUnityCube(m *big.Int) *big.Int {
	s := new(big.Int).ModSqrt(new(big.Int).Sub(m, big.NewInt(3)), m)
	if s == nil {
		panic("bn254: -3 is not a square — not a BN field")
	}
	inv2 := new(big.Int).ModInverse(big.NewInt(2), m)
	root := new(big.Int).Sub(s, big.NewInt(1))
	root.Mul(root, inv2).Mod(root, m)
	check := new(big.Int).Mul(root, root)
	check.Add(check, root).Add(check, big.NewInt(1)).Mod(check, m)
	if check.Sign() != 0 || root.Cmp(big.NewInt(1)) == 0 {
		panic("bn254: cube-root-of-unity construction failed")
	}
	return root
}

// --- the split --------------------------------------------------------------

// scalarLimbs returns k mod r as little-endian limbs. A scalar already in
// [0, r) converts without allocating.
func scalarLimbs(k *big.Int) [4]uint64 {
	r := params().R
	if k.Sign() < 0 || k.Cmp(r) >= 0 {
		k = new(big.Int).Mod(k, r)
	}
	var b [32]byte
	k.FillBytes(b[:])
	return [4]uint64{
		binary.BigEndian.Uint64(b[24:32]),
		binary.BigEndian.Uint64(b[16:24]),
		binary.BigEndian.Uint64(b[8:16]),
		binary.BigEndian.Uint64(b[0:8]),
	}
}

// split decomposes s (< r) into k1 + k2·λ ≡ s (mod r), returning each
// half's magnitude and sign. ok reports the soundness check: both halves
// below 2^glvHalfBits and the congruence itself, evaluated in Zr.
func (g *glvParams) split(s *[4]uint64) (k1, k2 [2]uint64, neg1, neg2, ok bool) {
	c1 := mulRound256(s, &g.g1, g.g1Neg)
	c2 := mulRound256(s, &g.g2, g.g2Neg)
	t1 := sub192([3]uint64{s[0], s[1], s[2]}, add192(mul192(c1, g.a1w), mul192(c2, g.a2w)))
	t2 := neg192(add192(mul192(c1, g.b1w), mul192(c2, g.b2w)))
	k1, neg1, ok1 := halfOf(t1)
	k2, neg2, ok2 := halfOf(t2)
	if !ok1 || !ok2 {
		return k1, k2, neg1, neg2, false
	}
	// k1 + k2·λ in Zr: k2 and k1 are raw (below 2^128 < r), so the
	// Montgomery product with λ's Montgomery form is the raw k2·λ mod r.
	f := g.fr
	sum, lo := limb.Element{k2[0], k2[1]}, limb.Element{k1[0], k1[1]}
	f.Mul(&sum, &sum, &g.lambdaM)
	if neg2 {
		f.Neg(&sum, &sum)
	}
	if neg1 {
		f.Sub(&sum, &sum, &lo)
	} else {
		f.Add(&sum, &sum, &lo)
	}
	return k1, k2, neg1, neg2, sum == limb.Element(*s)
}

// halfOf reads a two's-complement value mod 2^192 as a magnitude below
// 2^128 and a sign; ok is false when the magnitude does not fit.
func halfOf(t [3]uint64) (mag [2]uint64, neg, ok bool) {
	if neg = t[2]>>63 == 1; neg {
		t = neg192(t)
	}
	return [2]uint64{t[0], t[1]}, neg, t[2] == 0
}

// mulRound256 returns ±⌊(s·g + 2^255) / 2^256⌋ mod 2^192: s times the
// rounding constant g, rounded and shifted down by 256 bits.
func mulRound256(s *[4]uint64, g *[3]uint64, neg bool) [3]uint64 {
	var t [7]uint64
	for i := range s {
		var carry uint64
		for j := range g {
			hi, lo := bits.Mul64(s[i], g[j])
			var c uint64
			lo, c = bits.Add64(lo, t[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			t[i+j], carry = lo, hi
		}
		t[i+3] = carry
	}
	var c uint64
	_, c = bits.Add64(t[3], 1<<63, 0)
	t[4], c = bits.Add64(t[4], 0, c)
	t[5], c = bits.Add64(t[5], 0, c)
	t[6] += c
	out := [3]uint64{t[4], t[5], t[6]}
	if neg {
		out = neg192(out)
	}
	return out
}

// mul192 returns a·b mod 2^192.
func mul192(a, b [3]uint64) (z [3]uint64) {
	for i := range a {
		var carry uint64
		for j := 0; i+j < 3; j++ {
			hi, lo := bits.Mul64(a[i], b[j])
			var c uint64
			lo, c = bits.Add64(lo, z[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			z[i+j], carry = lo, hi
		}
	}
	return z
}

func add192(a, b [3]uint64) (z [3]uint64) {
	var c uint64
	z[0], c = bits.Add64(a[0], b[0], 0)
	z[1], c = bits.Add64(a[1], b[1], c)
	z[2], _ = bits.Add64(a[2], b[2], c)
	return z
}

func sub192(a, b [3]uint64) (z [3]uint64) {
	var c uint64
	z[0], c = bits.Sub64(a[0], b[0], 0)
	z[1], c = bits.Sub64(a[1], b[1], c)
	z[2], _ = bits.Sub64(a[2], b[2], c)
	return z
}

func neg192(a [3]uint64) [3]uint64 { return sub192([3]uint64{}, a) }

// --- recoding ---------------------------------------------------------------

// glvScalar is one scalar prepared for the ladder: the width-5 wNAF
// digits of its two halves with their signs folded in, least significant
// first, and the ladder length n, the longer of the two recodings.
// fallback marks a scalar whose split failed its soundness check; it runs
// the generic ladder instead.
type glvScalar struct {
	d1, d2   [glvDigits]int8
	n        int
	fallback bool
}

// recode splits s and recodes both halves into sc, which must be zero.
func (sc *glvScalar) recode(s *[4]uint64) {
	k1, k2, neg1, neg2, ok := glv().split(s)
	if !ok {
		sc.fallback = true
		return
	}
	sc.n = max(wnaf5(&sc.d1, k1, neg1), wnaf5(&sc.d2, k2, neg2))
}

// wnaf5 writes the width-5 NAF of the magnitude k into d, negated when
// neg is set, and returns the digit count (at most glvDigits).
func wnaf5(d *[glvDigits]int8, k [2]uint64, neg bool) int {
	lo, hi, top := k[0], k[1], uint64(0)
	n := 0
	for ; lo|hi|top != 0; n++ {
		if lo&1 == 1 {
			w := int8(lo & 31)
			if w >= 16 {
				w -= 32
			}
			var c uint64
			if w > 0 {
				lo, c = bits.Sub64(lo, uint64(w), 0)
				hi, c = bits.Sub64(hi, 0, c)
				top -= c
			} else {
				lo, c = bits.Add64(lo, uint64(-w), 0)
				hi, c = bits.Add64(hi, 0, c)
				top += c
			}
			if neg {
				w = -w
			}
			d[n] = w
		}
		lo = lo>>1 | hi<<63
		hi = hi>>1 | top<<63
		top >>= 1
	}
	return n
}

// --- the ladder -------------------------------------------------------------

// xy is an affine point known to be finite: a table entry.
type xy struct{ x, y fpElem }

// glvTable holds the odd multiples P, 3P, …, 15P of one base, affine, and
// their images under φ.
type glvTable struct {
	p, phi [glvTableLen]xy
}

// addDigit adds d·P to acc for a nonzero wNAF digit d, reading |d|·P from
// row and negating a copy of its y when d < 0.
func addDigit(acc *g1JacL, row *[glvTableLen]xy, d int8) {
	if d > 0 {
		e := &row[d>>1]
		jacLAddAffine(acc, &e.x, &e.y)
		return
	}
	e := &row[(-d)>>1]
	var ny fpElem
	params().fp.Neg(&ny, &e.y)
	jacLAddAffine(acc, &e.x, &ny)
}

// build sets t to the odd multiples of the finite point p, normalized on
// their own, for a lane group that reruns on the scalar ladder.
func (t *glvTable) build(p *G1) {
	var row [glvTableLen]g1JacL
	var zs, scratch [glvTableLen]fpElem
	oddMultiples(&row, p)
	normalize(row[:], zs[:], scratch[:])
	t.set(&row)
}

// ladder returns k1·P + k2·φ(P) for sc's halves over t's tables.
func (t *glvTable) ladder(sc *glvScalar) g1JacL {
	var acc g1JacL
	for i := sc.n - 1; i >= 0; i-- {
		jacLDouble(&acc)
		if d := sc.d1[i]; d != 0 {
			addDigit(&acc, &t.p, d)
		}
		if d := sc.d2[i]; d != 0 {
			addDigit(&acc, &t.phi, d)
		}
	}
	return acc
}

// glvSpan is the scratch of one span of the kernel: the tables of its
// distinct bases, the recodings of its distinct scalars, and Jacobian
// points with the field scratch to normalize them. jac, zs and scratch
// hold max(glvTableLen·len(tables), span length) elements each. lanes is
// the lane path's scratch (lanes.go), set when the span has a lane group;
// a lane group builds its own tables there, so tables serves only the
// entries on the scalar path.
type glvSpan struct {
	tables  []glvTable
	scalars []glvScalar
	jac     []g1JacL
	zs      []fpElem
	scratch []fpElem
	lanes   *laneScratch
}

// newGLVSpan sizes the scratch for a span over points and ks.
func newGLVSpan(points []*G1, ks []*big.Int) *glvSpan {
	sp := &glvSpan{}
	if hasLaneRun(points, ks) {
		sp.lanes = newLaneScratch()
	}
	nt, ns := 0, 0
	for i := range points {
		if startsRecoding(ks, i) {
			ns++
		}
	}
	for i, afterLanes := 0, false; i < len(points); {
		n := sp.segment(points, ks, i)
		if n == 1 && startsTable(points, i, afterLanes) {
			nt++
		}
		i, afterLanes = i+n, n > 1
	}
	n := max(glvTableLen*nt, len(points))
	fe := make([]fpElem, 2*n)
	sp.tables = make([]glvTable, nt)
	sp.scalars = make([]glvScalar, ns)
	sp.jac = make([]g1JacL, n)
	sp.zs, sp.scratch = fe[:n], fe[n:]
	return sp
}

// segment returns the number of entries, from entry i on, that the
// ladder pass takes in one step: laneWidth when they form a lane group
// (laneRunAt), 1 for an entry of the scalar path.
func (sp *glvSpan) segment(points []*G1, ks []*big.Int, i int) int {
	if sp.lanes != nil && laneRunAt(points, ks, i) {
		return laneWidth
	}
	return 1
}

// isIdentity reports whether a span entry's point contributes nothing.
func isIdentity(p *G1) bool { return p == nil || p.Inf }

// startsTable reports whether scalar-path entry i of a span needs a table
// of its own: its point contributes and is not the pointer of entry i−1,
// or entry i−1 ran in a lane group, which kept no table.
func startsTable(points []*G1, i int, afterLanes bool) bool {
	return !isIdentity(points[i]) && (i == 0 || afterLanes || points[i] != points[i-1])
}

// startsRecoding reports whether entry i of a span needs a recoding of its
// own: its scalar is set and is not the previous entry's pointer.
func startsRecoding(ks []*big.Int, i int) bool {
	return ks[i] != nil && (i == 0 || ks[i] != ks[i-1])
}

// oddMultiples sets row to P, 3P, …, 15P in Jacobian: one doubling and
// seven additions.
func oddMultiples(row *[glvTableLen]g1JacL, p *G1) {
	row[0].setAffine(p)
	two := row[0]
	jacLDouble(&two)
	for j := 1; j < glvTableLen; j++ {
		row[j] = row[j-1]
		jacLAdd(&row[j], &two)
	}
}

// set fills t from odd multiples normalized to Z = 1, adding their images
// under φ.
func (t *glvTable) set(row *[glvTableLen]g1JacL) {
	f := params().fp
	beta := &glv().beta
	for j := range t.p {
		src := &row[j]
		t.p[j] = xy{x: src.X, y: src.Y}
		t.phi[j].y = src.Y
		f.Mul(&t.phi[j].x, beta, &src.X)
	}
}

// fallbackMul returns k·p on the generic ladder, for a scalar whose split
// failed its soundness check.
func fallbackMul(p *G1, k *big.Int) g1JacL {
	var acc g1JacL
	acc.setAffine(genericScalarMul(p, new(big.Int).Mod(k, params().R)))
	return acc
}

// run sets out[i] = ks[i]·points[i] + addends[i] for every i. A nil or
// identity point and a nil scalar contribute the identity, and addends
// may be nil, or hold nil entries, for no addend.
func (sp *glvSpan) run(out []G1, points []*G1, ks []*big.Int, addends []*G1) {
	nt := 0
	for i, afterLanes := 0, false; i < len(points); {
		n := sp.segment(points, ks, i)
		if n == 1 && startsTable(points, i, afterLanes) {
			oddMultiples((*[glvTableLen]g1JacL)(sp.jac[glvTableLen*nt:]), points[i])
			nt++
		}
		i, afterLanes = i+n, n > 1
	}
	normalize(sp.jac[:glvTableLen*nt], sp.zs, sp.scratch)
	for t := 0; t < nt; t++ {
		sp.tables[t].set((*[glvTableLen]g1JacL)(sp.jac[glvTableLen*t:]))
	}

	ti, si := -1, -1
	for i, afterLanes := 0, false; i < len(points); {
		if startsRecoding(ks, i) {
			si++
			s := scalarLimbs(ks[i])
			sp.scalars[si].recode(&s)
		}
		n := sp.segment(points, ks, i)
		if n > 1 {
			sp.lanes.run(sp.jac[i:i+n], points[i:i+n], ks[i], &sp.scalars[si])
		} else {
			if startsTable(points, i, afterLanes) {
				ti++
			}
			acc := &sp.jac[i]
			*acc = g1JacL{}
			switch p := points[i]; {
			case isIdentity(p) || ks[i] == nil:
			case sp.scalars[si].fallback:
				*acc = fallbackMul(p, ks[i])
			default:
				*acc = sp.tables[ti].ladder(&sp.scalars[si])
			}
		}
		for end := i + n; i < end; i++ {
			if i < len(addends) && addends[i] != nil {
				jacLAddMixed(&sp.jac[i], addends[i])
			}
		}
		afterLanes = n > 1
	}
	normalize(sp.jac[:len(points)], sp.zs, sp.scratch)
	for i := range points {
		out[i] = sp.jac[i].affineNormalized()
	}
}

// G1ScalarMulManyAdd returns ks[i]·points[i] + addends[i] for every i, the
// span kernel behind every variable-base multiplication: one field
// inversion normalizes all the span's odd-multiple tables and one all its
// results. Scalars are reduced modulo r; a nil scalar or a nil or identity
// point contributes the identity, and addends may be nil, or hold nil
// entries, for no addend. Consecutive entries that share a point pointer
// share its table, and consecutive entries that share a scalar pointer
// share its recoding, so a span under one key (decryption) or over one
// base (a fresh key's encryptions) pays those once.
func G1ScalarMulManyAdd(points []*G1, ks []*big.Int, addends []*G1) []G1 {
	out := make([]G1, len(points))
	newGLVSpan(points, ks).run(out, points, ks, addends)
	return out
}

// genericScalarMul is the plain double-and-add ladder, kept as the GLV
// fallback and the baseline the GLV tests compare against. s must be
// reduced mod r.
func genericScalarMul(a *G1, s *big.Int) *G1 {
	var acc g1JacL
	if !a.Inf {
		for i := s.BitLen() - 1; i >= 0; i-- {
			jacLDouble(&acc)
			if s.Bit(i) == 1 {
				jacLAddMixed(&acc, a)
			}
		}
	}
	res := acc.affine()
	return &res
}
