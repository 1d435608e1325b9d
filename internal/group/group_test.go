package group_test

import (
	"math/big"
	"testing"
	"testing/quick"

	"dragoon/internal/drbg"
	"dragoon/internal/group"
)

func backends() map[string]group.Group {
	return map[string]group.Group{
		"bn254-g1":     group.BN254G1(),
		"test-schnorr": group.TestSchnorr(),
	}
}

func TestGroupLaws(t *testing.T) {
	for name, g := range backends() {
		t.Run(name, func(t *testing.T) {
			a := g.ScalarBaseMul(big.NewInt(17))
			b := g.ScalarBaseMul(big.NewInt(23))
			c := g.ScalarBaseMul(big.NewInt(40))
			if !g.Equal(g.Add(a, b), c) {
				t.Error("17g + 23g != 40g")
			}
			if !g.Equal(g.Add(a, b), g.Add(b, a)) {
				t.Error("not commutative")
			}
			if !g.Equal(g.Add(a, g.Identity()), a) {
				t.Error("identity law fails")
			}
			if !g.IsIdentity(g.Add(a, g.Neg(a))) {
				t.Error("inverse law fails")
			}
			if !g.IsIdentity(g.ScalarBaseMul(g.Order())) {
				t.Error("order·g != identity")
			}
			if !g.Equal(group.Sub(g, c, b), a) {
				t.Error("subtraction fails")
			}
		})
	}
}

func TestScalarHomomorphism(t *testing.T) {
	g := group.TestSchnorr()
	f := func(a, b uint64) bool {
		ka := new(big.Int).SetUint64(a)
		kb := new(big.Int).SetUint64(b)
		sum := new(big.Int).Add(ka, kb)
		return g.Equal(
			g.Add(g.ScalarBaseMul(ka), g.ScalarBaseMul(kb)),
			g.ScalarBaseMul(sum),
		)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	for name, g := range backends() {
		t.Run(name, func(t *testing.T) {
			for _, k := range []int64{0, 1, 2, 981234} {
				e := g.ScalarBaseMul(big.NewInt(k))
				enc := g.Marshal(e)
				if len(enc) != g.ElementLen() {
					t.Fatalf("encoded length %d != ElementLen %d", len(enc), g.ElementLen())
				}
				dec, err := g.Unmarshal(enc)
				if err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if !g.Equal(dec, e) {
					t.Errorf("roundtrip mismatch at k=%d", k)
				}
			}
		})
	}
}

func TestUnmarshalRejectsNonMembers(t *testing.T) {
	g := group.TestSchnorr()
	// A quadratic non-residue is outside the order-r subgroup: the raw
	// generator h of Z_q* before squaring is one with probability 1/2; try a
	// few small values until Unmarshal rejects one.
	rejected := false
	for v := int64(2); v < 50; v++ {
		buf := make([]byte, g.ElementLen())
		big.NewInt(v).FillBytes(buf)
		if _, err := g.Unmarshal(buf); err != nil {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Error("no non-member was rejected; membership check looks broken")
	}
}

func TestRandomScalarRange(t *testing.T) {
	g := group.TestSchnorr()
	rnd := drbg.New(1, "TestRandomScalarRange")
	for i := 0; i < 64; i++ {
		k, err := group.RandomScalar(g, rnd)
		if err != nil {
			t.Fatalf("RandomScalar: %v", err)
		}
		if k.Sign() < 0 || k.Cmp(g.Order()) >= 0 {
			t.Fatalf("scalar out of range: %v", k)
		}
	}
}
