package bn254

import (
	"math/big"
	"math/rand"
	"testing"
)

// affineLadder is the test oracle for every limb G1 path: a plain
// double-and-add over the exported affine G1.Add/G1.Double, which run on
// math/big and share no code with internal/limb. k is reduced mod r.
func affineLadder(a *G1, k *big.Int) *G1 {
	s := new(big.Int).Mod(k, Order())
	acc := G1Infinity()
	for i := s.BitLen() - 1; i >= 0; i-- {
		acc = acc.Double()
		if s.Bit(i) == 1 {
			acc = acc.Add(a)
		}
	}
	return acc
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
				want = want.Add(affineLadder(points[i], scalars[i]))
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
			want = want.Add(addends[i])
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
	var aff g1AffL
	aff.fromG1(G1Generator().ScalarMul(big.NewInt(99)))
	var acc g1JacL
	acc.setAffine(&aff)
	jacLDouble(&acc)
	if allocs := testing.AllocsPerRun(100, func() {
		jacLAddMixed(&acc, &aff)
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

func BenchmarkScalarMulLimb(b *testing.B) {
	base := G1Generator().ScalarMul(big.NewInt(987654321))
	k := new(big.Int).Rsh(Order(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.ScalarMul(k)
	}
}
