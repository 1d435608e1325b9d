package bn254

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
)

// skipWithoutLanes skips a test of the lane kernel itself on a CPU or
// build without it, where every span runs the scalar ladder.
func skipWithoutLanes(t testing.TB) {
	t.Helper()
	if !laneKernel {
		t.Skip("no AVX-512 IFMA lane kernel on this CPU or build: only the scalar ladder runs")
	}
}

// laneOfBig writes v (0 ≤ v < 2^260) into lane l as 52-bit limbs.
func laneOfBig(z *laneElem, l int, v *big.Int) {
	mask := big.NewInt(1<<52 - 1)
	for i := range z {
		z[i][l] = new(big.Int).And(new(big.Int).Rsh(v, uint(52*i)), mask).Uint64()
	}
}

// bigOfLane reads lane l of z as an integer, failing unless every limb is
// below 2^52 and the value below 2p.
func bigOfLane(t *testing.T, z *laneElem, l int) *big.Int {
	t.Helper()
	v := new(big.Int)
	for i := len(z) - 1; i >= 0; i-- {
		if z[i][l] >= 1<<52 {
			t.Fatalf("lane %d: limb %d = %#x is not below 2^52", l, i, z[i][l])
		}
		v.Lsh(v, 52).Or(v, new(big.Int).SetUint64(z[i][l]))
	}
	if v.Cmp(new(big.Int).Lsh(P(), 1)) >= 0 {
		t.Fatalf("lane %d: %s is not below 2p", l, v)
	}
	return v
}

// TestLaneKernel: vmul, vadd and vsub agree with big.Int arithmetic mod p
// on every pairing of the edge values 0, 1, p − 1, p and 2p − 1 (valid
// lane inputs: a lane value lives in [0, 2p)) and on random lanes, and
// every output is below 2p with every limb below 2^52.
func TestLaneKernel(t *testing.T) {
	skipWithoutLanes(t)
	c := &lanes().c
	p := P()
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 260), p)
	edges := []*big.Int{
		big.NewInt(0), big.NewInt(1),
		new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Set(p),
		new(big.Int).Sub(new(big.Int).Lsh(p, 1), big.NewInt(1)),
	}
	rng := rand.New(rand.NewSource(260))
	two := new(big.Int).Lsh(p, 1)
	var cases [][2]*big.Int
	for _, a := range edges {
		for _, b := range edges {
			cases = append(cases, [2]*big.Int{a, b})
		}
	}
	for len(cases)%laneWidth != 0 || len(cases) < 25+64 {
		cases = append(cases, [2]*big.Int{new(big.Int).Rand(rng, two), new(big.Int).Rand(rng, two)})
	}
	for start := 0; start < len(cases); start += laneWidth {
		var x, y laneElem
		for l := 0; l < laneWidth; l++ {
			laneOfBig(&x, l, cases[start+l][0])
			laneOfBig(&y, l, cases[start+l][1])
		}
		for _, op := range []struct {
			name string
			lane func(z, x, y *laneElem, c *laneConsts)
			want func(a, b *big.Int) *big.Int
		}{
			{"vmul", vmul, func(a, b *big.Int) *big.Int { return new(big.Int).Mul(new(big.Int).Mul(a, b), rInv) }},
			{"vadd", vadd, func(a, b *big.Int) *big.Int { return new(big.Int).Add(a, b) }},
			{"vsub", vsub, func(a, b *big.Int) *big.Int { return new(big.Int).Sub(a, b) }},
		} {
			var z laneElem
			op.lane(&z, &x, &y, c)
			for l := 0; l < laneWidth; l++ {
				a, b := cases[start+l][0], cases[start+l][1]
				got := bigOfLane(t, &z, l)
				want := op.want(a, b)
				if got.Mod(got, p).Cmp(want.Mod(want, p)) != 0 {
					t.Fatalf("%s(%s, %s) = %s mod p, want %s", op.name, a, b, got, want)
				}
			}
		}
	}
}

// TestLaneConversion: a limb element enters a lane as its value times
// 2^260 mod p and comes back unchanged, for 0, 1, p − 1 and random
// elements, in every lane.
func TestLaneConversion(t *testing.T) {
	skipWithoutLanes(t)
	lp := lanes()
	f := params().fp
	p := P()
	r260 := new(big.Int).Lsh(big.NewInt(1), 260)
	vals := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(p, big.NewInt(1))}
	rng := rand.New(rand.NewSource(52))
	for len(vals) < 4*laneWidth {
		vals = append(vals, new(big.Int).Rand(rng, p))
	}
	for start := 0; start < len(vals); start += laneWidth {
		var z laneElem
		els := make([]fpElem, laneWidth)
		for l := range els {
			f.SetBig(&els[l], vals[start+l])
			toLane(&z, l, &els[l])
		}
		for l := range els {
			want := new(big.Int).Mul(vals[start+l], r260)
			if got := bigOfLane(t, &z, l); got.Cmp(want.Mod(want, p)) != 0 {
				t.Fatalf("lane form of %s = %s, want x·2^260 mod p = %s", vals[start+l], got, want)
			}
			if back := lp.fromLane(&z, l); back != els[l] {
				t.Fatalf("%s did not round-trip through lane %d", vals[start+l], l)
			}
		}
	}
}

// spanPoints returns n distinct finite points: a random multiple of the
// generator, then repeated additions of another.
func spanPoints(rng *rand.Rand, n int) []*G1 {
	r := Order()
	p := G1ScalarBaseMul(new(big.Int).Rand(rng, r))
	step := G1ScalarBaseMul(new(big.Int).Rand(rng, r))
	out := make([]*G1, n)
	for i := range out {
		out[i] = p
		p = p.Add(step)
	}
	return out
}

// checkSpan fails unless G1ScalarMulManyAdd matches the scalar ladder (a
// one-entry span, ScalarMul) plus the addend at every entry.
func checkSpan(t testing.TB, name string, points []*G1, ks []*big.Int, addends []*G1) {
	t.Helper()
	got := G1ScalarMulManyAdd(points, ks, addends)
	if len(got) != len(points) {
		t.Fatalf("%s: %d results for %d entries", name, len(got), len(points))
	}
	for i := range points {
		want := G1Infinity()
		if !isIdentity(points[i]) && ks[i] != nil {
			want = points[i].ScalarMul(ks[i])
		}
		if i < len(addends) && addends[i] != nil {
			want = want.Add(addends[i])
		}
		if !got[i].Equal(want) {
			t.Fatalf("%s [%d of %d]: got %v, want %v", name, i, len(points), &got[i], want)
		}
	}
}

// TestLaneSpanMatchesScalar: same-key spans of every length from 0 to 40
// and of 53 (an imagenet_honest decryption span) match the scalar ladder
// entry by entry: with and without addends, with identity and nil points
// inside what would be a group, with repeated point pointers, and with a
// different scalar pointer part-way that breaks a run. The keys include
// 0, 1, r − 1 and r.
func TestLaneSpanMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := Order()
	special := []*big.Int{
		big.NewInt(0), big.NewInt(1), new(big.Int).Sub(r, big.NewInt(1)), new(big.Int).Set(r),
	}
	lengths := make([]int, 0, 42)
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 53)
	for _, n := range lengths {
		keys := []*big.Int{new(big.Int).Rand(rng, r)}
		if n == 8 || n == 16 || n == 53 {
			keys = append(keys, special...)
		}
		for _, key := range keys {
			points := spanPoints(rng, n)
			ks := make([]*big.Int, n)
			addends := make([]*G1, n)
			for i := range ks {
				ks[i] = key
				if i%3 != 2 {
					addends[i] = points[(i+5)%n]
				}
			}
			checkSpan(t, "plain", points, ks, addends)
			checkSpan(t, "nil addends", points, ks, nil)
			if n < 2 {
				continue
			}
			holes := append([]*G1(nil), points...)
			holes[n/3] = G1Infinity()
			holes[(2*n)/3] = nil
			checkSpan(t, "identity and nil points", holes, ks, addends)
			repeats := append([]*G1(nil), points...)
			for i := 1; i < n; i += 3 {
				repeats[i] = repeats[i-1]
			}
			checkSpan(t, "repeated points", repeats, ks, addends)
			broken := append([]*big.Int(nil), ks...)
			broken[n/2] = new(big.Int).Set(key) // the same value behind another pointer
			for i := n/2 + 5; i < n; i++ {
				broken[i] = r // another key altogether: the identity
			}
			checkSpan(t, "scalar change", points, broken, addends)
		}
	}
}

// TestLanePathRuns: a 53-entry same-key span runs six lane groups and
// five entries on the scalar ladder; a 4-entry span, spans of distinct
// scalars and ScalarMul run none.
func TestLanePathRuns(t *testing.T) {
	skipWithoutLanes(t)
	rng := rand.New(rand.NewSource(6))
	k := new(big.Int).Rand(rng, Order())
	groups := func(points []*G1, ks []*big.Int) int64 {
		before := laneGroups.Load()
		G1ScalarMulManyAdd(points, ks, nil)
		return laneGroups.Load() - before
	}
	same := func(n int) []*big.Int {
		ks := make([]*big.Int, n)
		for i := range ks {
			ks[i] = k
		}
		return ks
	}
	points := spanPoints(rng, 53)
	if got := groups(points, same(53)); got != 6 {
		t.Errorf("53-entry span: %d lane groups, want 6", got)
	}
	if got := groups(points[:4], same(4)); got != 0 {
		t.Errorf("4-entry span: %d lane groups, want 0", got)
	}
	if got := groups(points[:16], randScalars(16, 7)); got != 0 {
		t.Errorf("16 distinct scalars: %d lane groups, want 0", got)
	}
	before := laneGroups.Load()
	points[0].ScalarMul(k)
	if got := laneGroups.Load() - before; got != 0 {
		t.Errorf("ScalarMul: %d lane groups, want 0", got)
	}
}

// TestLaneExceptionalAddition forces the one case the lockstep addition
// cannot take: the accumulator equal to ± the table entry it adds. Such
// a case depends only on the scalar, and no real scalar reaches it, so
// the test plants it in one lane's table: with k = 97 (k1 = 97, k2 = 0:
// digit 3 at position 5 and digit 1 at position 0) the last addition
// adds entry 0 to 96·P, and lane 3's entry 0 is set to ±96·P₃. The group
// must notice, take no lane result and rerun on the scalar ladder, whose
// results come from the points themselves.
func TestLaneExceptionalAddition(t *testing.T) {
	skipWithoutLanes(t)
	k := big.NewInt(97)
	var sc glvScalar
	s := scalarLimbs(k)
	sc.recode(&s)
	if sc.fallback || sc.n != 6 || sc.d1[5] != 3 || sc.d1[0] != 1 || sc.d2 != [glvDigits]int8{} {
		t.Fatalf("recoding of 97 is not the one the test plants against: %+v", sc)
	}
	pts := spanPoints(rand.New(rand.NewSource(97)), laneWidth)
	f := params().fp
	for _, neg := range []bool{false, true} {
		ls := newLaneScratch()
		ls.build(pts)
		acc := pts[3].ScalarMul(big.NewInt(96))
		if neg {
			acc = acc.Neg()
		}
		var ny fpElem
		f.Neg(&ny, &acc.y)
		e := &ls.tab[0]
		toLane(&e.x, 3, &acc.x)
		toLane(&e.y, 3, &acc.y)
		toLane(&e.ny, 3, &ny)
		before := laneGroups.Load()
		accs := make([]g1JacL, laneWidth)
		ls.finish(accs, pts, &sc)
		if laneGroups.Load() != before {
			t.Fatalf("negated %v: the lane result was taken despite an exceptional addition", neg)
		}
		for l := range accs {
			got := accs[l].affine()
			if want := pts[l].ScalarMul(k); !got.Equal(want) {
				t.Fatalf("negated %v, lane %d: got %v, want %v", neg, l, &got, want)
			}
		}
	}
	// Without the planted entry the same group stays on lanes.
	ls := newLaneScratch()
	ls.build(pts)
	before := laneGroups.Load()
	accs := make([]g1JacL, laneWidth)
	ls.finish(accs, pts, &sc)
	if laneGroups.Load() != before+1 {
		t.Fatal("an unexceptional group did not take the lane result")
	}
	for l := range accs {
		if got := accs[l].affine(); !got.Equal(pts[l].ScalarMul(k)) {
			t.Fatalf("lane %d: got %v", l, &got)
		}
	}
}

// FuzzLaneLadder: a span generated from the fuzz input (its seed, its
// length below 64, and shape bits for nil addends, identity points,
// repeated points and a scalar change) matches the scalar ladder.
func FuzzLaneLadder(f *testing.F) {
	f.Add(uint64(1), uint8(53), uint8(0))
	f.Add(uint64(2), uint8(8), uint8(0xff))
	f.Add(uint64(3), uint8(17), uint8(0x05))
	f.Fuzz(func(t *testing.T, seed uint64, n, shape uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		size := int(n % 64)
		points := spanPoints(rng, size)
		var kb [40]byte
		binary.LittleEndian.PutUint64(kb[:], seed)
		rng.Read(kb[8:])
		k := new(big.Int).SetBytes(kb[:]) // any size: the kernel reduces it
		ks := make([]*big.Int, size)
		var addends []*G1
		if shape&1 == 0 {
			addends = spanPoints(rng, size)
		}
		for i := range ks {
			ks[i] = k
			switch {
			case shape&2 != 0 && i%11 == 5:
				points[i] = nil
			case shape&4 != 0 && i%13 == 7:
				points[i] = G1Infinity()
			case shape&8 != 0 && i%3 == 1:
				points[i] = points[i-1]
			}
		}
		if shape&16 != 0 {
			other := new(big.Int).Add(k, big.NewInt(1))
			for i := int(shape>>5) * size / 8; i < size; i++ {
				ks[i] = other
			}
		}
		checkSpan(t, "fuzz", points, ks, addends)
	})
}

// BenchmarkLaneMul times one eight-lane Montgomery multiplication in a
// dependent chain; internal/limb's BenchmarkMul times one limb product.
func BenchmarkLaneMul(b *testing.B) {
	skipWithoutLanes(b)
	lp := lanes()
	x, y := lp.one, lp.beta
	for b.Loop() {
		vmul(&x, &x, &y, &lp.c)
	}
}
