package bn254

import (
	"math/big"
	"math/rand"
	"testing"
	"unsafe"
)

// structuredScalars are the boundary scalars every kernel equivalence test
// sweeps alongside random ones: 0, 1, r−1, r, r+1, a negative value, and
// powers of two across the scalar width.
func structuredScalars() []*big.Int {
	r := Order()
	out := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(r, big.NewInt(1)),
		new(big.Int).Set(r),
		new(big.Int).Add(r, big.NewInt(1)),
		new(big.Int).Neg(big.NewInt(5)),
	}
	for i := 0; i <= 254; i += 17 {
		out = append(out, new(big.Int).Lsh(big.NewInt(1), uint(i)))
	}
	return out
}

func randScalars(n int, seed int64) []*big.Int {
	rng := rand.New(rand.NewSource(seed))
	r := Order()
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int).Rand(rng, r)
	}
	return out
}

// signedDigitScalars have every window at a boundary of the signed
// recoding: 0x80 (digit 128), 0x81 (−127 with a borrow), 0xff (−1, a chain
// of borrows) and 0x7f, under a top byte that keeps them below r.
func signedDigitScalars() []*big.Int {
	var out []*big.Int
	for _, b := range []byte{0x80, 0x81, 0xff, 0x7f} {
		raw := make([]byte, 32)
		for i := range raw {
			raw[i] = b
		}
		raw[0] = 0x20
		out = append(out, new(big.Int).SetBytes(raw))
	}
	return out
}

// TestFixedBaseTableMatchesGeneric: table multiplication must agree with the
// generic ladder for every structured, signed-digit boundary and random
// scalar, over the generator, an arbitrary base, and the identity base.
func TestFixedBaseTableMatchesGeneric(t *testing.T) {
	bases := []*G1{
		G1Generator(),
		G1Generator().ScalarMul(big.NewInt(0xdead_beef)),
		G1Infinity(),
	}
	for _, base := range bases {
		table := NewFixedBaseTable(base)
		ks := append(structuredScalars(), signedDigitScalars()...)
		for _, k := range append(ks, randScalars(16, 7)...) {
			want := genericScalarMul(base, new(big.Int).Mod(k, Order()))
			if got := table.Mul(k); !got.Equal(want) {
				t.Fatalf("table.Mul(%s) = %s, generic = %s", k, got, want)
			}
		}
	}
}

// TestFixedBaseTableSize: a G1 table holds 32 rows of 128 bare affine
// points, 256 KiB of coordinates.
func TestFixedBaseTableSize(t *testing.T) {
	table := NewFixedBaseTable(G1Generator())
	size := len(table.rows) * int(unsafe.Sizeof(table.rows[0]))
	if len(table.rows) != fixedBaseWindows*fixedBaseHalfRow || size > 300<<10 {
		t.Fatalf("table of %d points, %d bytes; want %d points and at most 300 KiB",
			len(table.rows), size, fixedBaseWindows*fixedBaseHalfRow)
	}
}

// TestFixedBaseMulMany: the batched variants must be pointwise identical to
// Mul, including nil scalars and identity addends.
func TestFixedBaseMulMany(t *testing.T) {
	base := G1Generator().ScalarMul(big.NewInt(31337))
	table := NewFixedBaseTable(base)
	ks := append(structuredScalars(), randScalars(9, 11)...)
	ks = append(ks, nil)

	many := table.MulMany(ks)
	if len(many) != len(ks) {
		t.Fatalf("MulMany returned %d results for %d scalars", len(many), len(ks))
	}
	for i, k := range ks {
		if k == nil {
			if many[i] != nil {
				t.Fatal("nil scalar must yield nil result")
			}
			continue
		}
		if want := table.Mul(k); !many[i].Equal(want) {
			t.Fatalf("MulMany[%d] diverged from Mul", i)
		}
	}

	addends := make([]*G1, len(ks))
	rng := rand.New(rand.NewSource(23))
	for i := range addends {
		switch i % 3 {
		case 0:
			addends[i] = G1Generator().ScalarMul(new(big.Int).Rand(rng, Order()))
		case 1:
			addends[i] = G1Infinity()
		default:
			addends[i] = nil
		}
	}
	withAdd := table.MulManyAdd(ks, addends)
	for i, k := range ks {
		s := big.NewInt(0)
		if k != nil {
			s = k
		}
		want := table.Mul(s)
		if addends[i] != nil {
			want = want.Add(addends[i])
		}
		if !withAdd[i].Equal(want) {
			t.Fatalf("MulManyAdd[%d] diverged", i)
		}
	}
}

// TestG2ScalarMulJacobian pins the Jacobian G2 ladder and fixed-base table
// against the affine formulas.
func TestG2ScalarMulJacobian(t *testing.T) {
	h := G2Generator()
	affineMul := func(a *G2, s *big.Int) *G2 {
		acc := G2Infinity()
		for i := s.BitLen() - 1; i >= 0; i-- {
			acc = acc.Double()
			if s.Bit(i) == 1 {
				acc = acc.Add(a)
			}
		}
		return acc
	}
	for _, k := range append(structuredScalars(), randScalars(4, 5)...) {
		s := new(big.Int).Mod(k, Order())
		want := affineMul(h, s)
		if got := h.ScalarMul(k); !got.Equal(want) {
			t.Fatalf("G2.ScalarMul(%s) diverged from affine ladder", k)
		}
		if got := G2ScalarBaseMul(k); !got.Equal(want) {
			t.Fatalf("G2ScalarBaseMul(%s) diverged from affine ladder", k)
		}
	}
}

func BenchmarkFixedBaseMul(b *testing.B) {
	table := NewFixedBaseTable(G1Generator().ScalarMul(big.NewInt(99)))
	ks := randScalars(64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Mul(ks[i%len(ks)])
	}
}

func BenchmarkFixedBaseMulMany64(b *testing.B) {
	table := NewFixedBaseTable(G1Generator().ScalarMul(big.NewInt(99)))
	ks := randScalars(64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.MulMany(ks)
	}
}

func BenchmarkFixedBaseTableBuild(b *testing.B) {
	base := G1Generator().ScalarMul(big.NewInt(99))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewFixedBaseTable(base)
	}
}
