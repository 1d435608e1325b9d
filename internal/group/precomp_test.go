package group

import (
	"math/big"
	"math/rand"
	"testing"
)

func precompScalars(g Group, n int, seed int64) []*big.Int {
	r := g.Order()
	out := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(r, big.NewInt(1)),
		new(big.Int).Set(r),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		out = append(out, new(big.Int).Rand(rng, r))
	}
	return out
}

// TestPrecomputeMatchesScalarMul: for both backends, the native fixed-base
// handle must agree with plain ScalarMul on every scalar, and the batch
// variants must be pointwise identical.
func TestPrecomputeMatchesScalarMul(t *testing.T) {
	for _, g := range []Group{TestSchnorr(), BN254G1()} {
		t.Run(g.Name(), func(t *testing.T) {
			base := g.ScalarBaseMul(big.NewInt(424242))
			fb := Precompute(g, base)
			if _, ok := fb.(genericFixedBase); ok {
				t.Fatalf("%s should provide a native FixedBase", g.Name())
			}
			ks := precompScalars(g, 8, 99)
			for _, k := range ks {
				if want := g.ScalarMul(base, k); !g.Equal(fb.Mul(k), want) {
					t.Fatalf("fixed-base Mul(%s) diverged from ScalarMul", k)
				}
			}

			withNil := append(append([]*big.Int{}, ks...), nil)
			many := fb.MulMany(withNil)
			for i, k := range withNil {
				if k == nil {
					if many[i] != nil {
						t.Fatal("nil scalar must yield nil result")
					}
					continue
				}
				if !g.Equal(many[i], g.ScalarMul(base, k)) {
					t.Fatalf("MulMany[%d] diverged", i)
				}
			}

			addends := make([]Element, len(withNil))
			for i := range addends {
				switch i % 3 {
				case 0:
					addends[i] = g.ScalarBaseMul(big.NewInt(int64(i + 7)))
				case 1:
					addends[i] = g.Identity()
				}
			}
			got := fb.MulManyAdd(withNil, addends)
			for i, k := range withNil {
				s := big.NewInt(0)
				if k != nil {
					s = k
				}
				want := g.ScalarMul(base, s)
				if addends[i] != nil {
					want = g.Add(want, addends[i])
				}
				if !g.Equal(got[i], want) {
					t.Fatalf("MulManyAdd[%d] diverged", i)
				}
			}
		})
	}
}

// noTables hides a backend's FixedBaser extension: embedding the Group
// interface promotes only the Group methods.
type noTables struct{ Group }

// TestGenericFallback: the fallback handle must behave identically for a
// group with no native tables.
func TestGenericFallback(t *testing.T) {
	g := noTables{TestSchnorr()}
	base := g.ScalarBaseMul(big.NewInt(5))
	fb := Precompute(g, base)
	if _, ok := fb.(genericFixedBase); !ok {
		t.Fatal("a group without FixedBaser must get the generic fallback")
	}
	if _, ok := SharedBase(g, base).(genericFixedBase); !ok {
		t.Fatal("SharedBase must also fall back for a group without FixedBaser")
	}
	for _, k := range precompScalars(g, 4, 3) {
		if !g.Equal(fb.Mul(k), g.ScalarMul(base, k)) {
			t.Fatalf("generic fallback Mul(%s) diverged", k)
		}
	}
}

// TestSharedBaseRegistry: same base → same handle; distinct bases → distinct
// entries; the registry never exceeds its cap.
func TestSharedBaseRegistry(t *testing.T) {
	g := TestSchnorr()
	base := g.ScalarBaseMul(big.NewInt(123))
	a := SharedBase(g, base)
	b := SharedBase(g, g.ScalarBaseMul(big.NewInt(123)))
	if a != b {
		t.Fatal("SharedBase must return the cached handle for an equal base")
	}
	k := big.NewInt(987654321)
	if !g.Equal(a.Mul(k), g.ScalarMul(base, k)) {
		t.Fatal("shared handle diverged from ScalarMul")
	}

	for i := 0; i < 2*sharedBaseCap; i++ {
		SharedBase(g, g.ScalarBaseMul(big.NewInt(int64(10_000+i))))
	}
	if n := sharedBaseCount(); n > sharedBaseCap {
		t.Fatalf("registry grew to %d entries, cap is %d", n, sharedBaseCap)
	}
	// An evicted base must still work (rebuilt transparently).
	if !g.Equal(SharedBase(g, base).Mul(k), g.ScalarMul(base, k)) {
		t.Fatal("re-registered base diverged")
	}
}
