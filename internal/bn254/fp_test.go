package bn254

import (
	"math/big"
	"math/rand"
	"testing"
)

// bigG1 is the test oracle's affine point: the textbook group law and
// decoder over math/big, which share no code with internal/limb.
type bigG1 struct {
	x, y *big.Int
	inf  bool
}

// toBigG1 reads a point's coordinates into the oracle's representation.
func toBigG1(a *G1) bigG1 {
	if a.Inf {
		return bigG1{inf: true}
	}
	x, y := a.bigAffine()
	return bigG1{x: x, y: y}
}

// g1 converts an oracle point back, for comparison with Equal.
func (a bigG1) g1() *G1 {
	if a.inf {
		return G1Infinity()
	}
	f := params().fp
	pt := new(G1)
	f.SetBig(&pt.x, a.x)
	f.SetBig(&pt.y, a.y)
	return pt
}

func (a bigG1) add(b bigG1) bigG1 {
	if a.inf {
		return b
	}
	if b.inf {
		return a
	}
	p := P()
	if a.x.Cmp(b.x) == 0 {
		if a.y.Cmp(b.y) != 0 {
			return bigG1{inf: true} // a = −b
		}
		return a.double()
	}
	// λ = (y2 − y1)/(x2 − x1).
	lambda := fpMul(fpSub(b.y, a.y, p), fpInv(fpSub(b.x, a.x, p), p), p)
	x3 := fpSub(fpSub(fpMul(lambda, lambda, p), a.x, p), b.x, p)
	y3 := fpSub(fpMul(lambda, fpSub(a.x, x3, p), p), a.y, p)
	return bigG1{x: x3, y: y3}
}

func (a bigG1) double() bigG1 {
	if a.inf || a.y.Sign() == 0 {
		return bigG1{inf: true}
	}
	p := P()
	// λ = 3x²/(2y).
	num := fpMul(big.NewInt(3), fpMul(a.x, a.x, p), p)
	lambda := fpMul(num, fpInv(fpAdd(a.y, a.y, p), p), p)
	x3 := fpSub(fpSub(fpMul(lambda, lambda, p), a.x, p), a.x, p)
	y3 := fpSub(fpMul(lambda, fpSub(a.x, x3, p), p), a.y, p)
	return bigG1{x: x3, y: y3}
}

// oracleAdd returns a + b by the oracle's group law.
func oracleAdd(a, b *G1) *G1 { return toBigG1(a).add(toBigG1(b)).g1() }

// oracleUnmarshalG1 is the oracle's decoder: 64 bytes, both coordinates
// below p, and y² = x³ + 3, or 64 zero bytes for the identity.
func oracleUnmarshalG1(data []byte) (bigG1, bool) {
	if len(data) != 64 {
		return bigG1{}, false
	}
	x := new(big.Int).SetBytes(data[:32])
	y := new(big.Int).SetBytes(data[32:])
	if x.Sign() == 0 && y.Sign() == 0 {
		return bigG1{inf: true}, true
	}
	p := P()
	if x.Cmp(p) >= 0 || y.Cmp(p) >= 0 {
		return bigG1{}, false
	}
	rhs := fpAdd(fpMul(fpMul(x, x, p), x, p), big.NewInt(3), p)
	return bigG1{x: x, y: y}, fpMul(y, y, p).Cmp(rhs) == 0
}

// affineLadder is the test oracle for every limb G1 path: a plain
// double-and-add over the oracle's group law. k is reduced mod r.
func affineLadder(a *G1, k *big.Int) *G1 {
	s := new(big.Int).Mod(k, Order())
	base := toBigG1(a)
	acc := bigG1{inf: true}
	for i := s.BitLen() - 1; i >= 0; i-- {
		acc = acc.double()
		if s.Bit(i) == 1 {
			acc = acc.add(base)
		}
	}
	return acc.g1()
}

func limbTestScalars(n int, seed int64) []*big.Int {
	rng := rand.New(rand.NewSource(seed))
	r := Order()
	out := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(-5),
		new(big.Int).Sub(r, big.NewInt(1)),
		new(big.Int).Rsh(r, 1),
	}
	for i := 0; i < n; i++ {
		out = append(out, new(big.Int).Rand(rng, r))
	}
	return out
}

// TestScalarMulLimbVsBigInt checks both limb ladders — the GLV split
// behind ScalarMul and the generic fallback — against the affine oracle.
func TestScalarMulLimbVsBigInt(t *testing.T) {
	base := G1Generator().ScalarMul(big.NewInt(987654321)) // a non-generator base
	for _, k := range limbTestScalars(24, 7) {
		want := affineLadder(base, k)
		if got := base.ScalarMul(k); !got.Equal(want) {
			t.Fatalf("GLV k=%v: got %v want %v", k, got, want)
		}
		if got := genericScalarMul(base, new(big.Int).Mod(k, Order())); !got.Equal(want) {
			t.Fatalf("generic k=%v: got %v want %v", k, got, want)
		}
		if !want.IsOnCurve() {
			t.Fatalf("k=%v: result off curve", k)
		}
	}
}

// TestMSMLimbVsBigInt covers the Pippenger bucket loop, sequential and
// chunked, including nil entries and identity points.
func TestMSMLimbVsBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := Order()
	for _, n := range []int{1, 2, 7, 33, 70} {
		points := make([]*G1, n)
		scalars := make([]*big.Int, n)
		for i := range points {
			points[i] = G1Generator().ScalarMul(new(big.Int).Rand(rng, r))
			scalars[i] = new(big.Int).Rand(rng, r)
		}
		if n > 2 {
			points[1] = G1Infinity()
			scalars[2] = nil
		}
		want := G1Infinity()
		for i := range points {
			if scalars[i] != nil {
				want = oracleAdd(want, affineLadder(points[i], scalars[i]))
			}
		}
		if got := MSMG1(points, scalars); !got.Equal(want) {
			t.Fatalf("n=%d: MSM %v != oracle %v", n, got, want)
		}
	}
}

// TestFixedBaseTableLimbVsBigInt checks Mul, MulMany and MulManyAdd of one
// table against the affine oracle, with nil scalars and nil addends.
func TestFixedBaseTableLimbVsBigInt(t *testing.T) {
	base := G1Generator().ScalarMul(big.NewInt(31337))
	tbl := NewFixedBaseTable(base)

	ks := limbTestScalars(12, 13)
	wants := make([]*G1, len(ks))
	for i, k := range ks {
		wants[i] = affineLadder(base, k)
		if got := tbl.Mul(k); !got.Equal(wants[i]) {
			t.Fatalf("Mul k=%v: got %v want %v", k, got, wants[i])
		}
	}

	many := tbl.MulMany(append(append([]*big.Int{}, ks...), nil))
	if many[len(ks)] != nil {
		t.Fatal("MulMany: nil scalar must yield nil result")
	}
	for i := range ks {
		if !many[i].Equal(wants[i]) {
			t.Fatalf("MulMany[%d]: got %v want %v", i, many[i], wants[i])
		}
	}

	addends := make([]*G1, len(ks))
	for i := range addends {
		if i%3 != 0 {
			addends[i] = G1Generator().ScalarMul(big.NewInt(int64(i + 1)))
		}
	}
	for i, got := range tbl.MulManyAdd(ks, addends) {
		want := wants[i]
		if addends[i] != nil {
			want = oracleAdd(want, addends[i])
		}
		if !got.Equal(want) {
			t.Fatalf("MulManyAdd[%d]: got %v want %v", i, got, want)
		}
	}
}

// TestG1ScalarBaseMulLimb checks the generator table path against the
// affine oracle.
func TestG1ScalarBaseMulLimb(t *testing.T) {
	for _, k := range limbTestScalars(6, 17) {
		if got, want := G1ScalarBaseMul(k), affineLadder(G1Generator(), k); !got.Equal(want) {
			t.Fatalf("k=%v: got %v want %v", k, got, want)
		}
	}
}

// TestJacMixedAddZeroAllocs proves the limb mixed Jacobian addition and
// doubling — the two operations inside every ladder step, bucket update and
// table hit — allocate nothing.
func TestJacMixedAddZeroAllocs(t *testing.T) {
	aff := G1Generator().ScalarMul(big.NewInt(99))
	var acc g1JacL
	acc.setAffine(aff)
	jacLDouble(&acc)
	if allocs := testing.AllocsPerRun(100, func() {
		jacLAddMixed(&acc, aff)
		jacLDouble(&acc)
	}); allocs != 0 {
		t.Fatalf("limb mixed add + double: %v allocs/op, want 0", allocs)
	}
	other := acc
	if allocs := testing.AllocsPerRun(100, func() {
		jacLAdd(&acc, &other)
	}); allocs != 0 {
		t.Fatalf("limb general add: %v allocs/op, want 0", allocs)
	}
}

// TestG1Allocs pins the allocations of the exported G1 operations: one, for
// the result, per group-law or codec call, and at most four per scalar
// multiplication, whose split, recoding and scratch stay on the stack.
func TestG1Allocs(t *testing.T) {
	a := G1Generator().ScalarMul(big.NewInt(7))
	b := G1Generator().ScalarMul(big.NewInt(11))
	enc := a.Marshal()
	k := randScalars(1, 5)[0]
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Add", 1, func() { a.Add(b) }},
		{"Neg", 1, func() { a.Neg() }},
		{"Marshal", 1, func() { a.Marshal() }},
		{"UnmarshalG1", 1, func() {
			if _, err := UnmarshalG1(enc); err != nil {
				t.Fatal(err)
			}
		}},
		{"ScalarMul", 4, func() { a.ScalarMul(k) }},
	} {
		if got := testing.AllocsPerRun(50, tc.fn); got > tc.max {
			t.Errorf("%s: %v allocs/op, want at most %v", tc.name, got, tc.max)
		}
	}
}

func BenchmarkScalarMulLimb(b *testing.B) {
	base := G1Generator().ScalarMul(big.NewInt(987654321))
	k := new(big.Int).Rsh(Order(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.ScalarMul(k)
	}
}
