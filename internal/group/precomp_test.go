package group

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dragoon/internal/bn254"
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
			fber, ok := g.(FixedBaser)
			if !ok {
				t.Fatalf("%s should provide a native FixedBase", g.Name())
			}
			base := g.ScalarBaseMul(big.NewInt(424242))
			checkHandle(t, g, base, fber.PrecomputeFixedBase(base), precompScalars(g, 8, 99), func(int) {})
		})
	}
}

// checkHandle calls Mul on each of ks, then MulMany and MulManyAdd on ks
// plus a nil scalar, with nil, identity and other addends, and fails unless
// every result equals ScalarMul/Add. After each call it passes the number of
// scalars the call took to after.
func checkHandle(t *testing.T, g Group, base Element, fb FixedBase, ks []*big.Int, after func(n int)) {
	t.Helper()
	for _, k := range ks {
		if want := g.ScalarMul(base, k); !g.Equal(fb.Mul(k), want) {
			t.Fatalf("fixed-base Mul(%s) diverged from ScalarMul", k)
		}
		after(1)
	}

	withNil := append(append([]*big.Int{}, ks...), nil)
	many := fb.MulMany(withNil)
	after(len(withNil))
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
	after(len(withNil))
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
}

// noTables hides a backend's FixedBaser extension: embedding the Group
// interface promotes only the Group methods.
type noTables struct{ Group }

// TestGenericFallback: the fallback handle must behave identically for a
// group with no native tables.
func TestGenericFallback(t *testing.T) {
	g := noTables{TestSchnorr()}
	base := g.ScalarBaseMul(big.NewInt(5))
	fb := genericFixedBase{g: g, base: base}
	if _, ok := SharedBase(g, base).(genericFixedBase); !ok {
		t.Fatal("SharedBase must fall back for a group without FixedBaser")
	}
	for _, k := range precompScalars(g, 4, 3) {
		if !g.Equal(fb.Mul(k), g.ScalarMul(base, k)) {
			t.Fatalf("generic fallback Mul(%s) diverged", k)
		}
	}
}

// countingTables wraps a backend's FixedBaser and counts its table builds.
// Each wrapper is its own registry key, so tests using one do not share
// registry entries with other tests.
type countingTables struct {
	Group
	builds *atomic.Int64
}

func newCountingTables(g Group) countingTables {
	return countingTables{Group: g, builds: new(atomic.Int64)}
}

func (c countingTables) PrecomputeFixedBase(base Element) FixedBase {
	c.builds.Add(1)
	return c.Group.(FixedBaser).PrecomputeFixedBase(base)
}

// registrySizes reports how many bases hold a table and how many are still
// counting.
func registrySizes() (tables, counts int) {
	sharedBaseMu.Lock()
	defer sharedBaseMu.Unlock()
	return len(sharedTables.m), len(sharedCounts.m)
}

// TestSharedBaseRegistry: same base → same handle; distinct bases → distinct
// entries; the table registry never exceeds its cap.
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

	// Threshold 0: every base builds its table on its first multiplication.
	for i := 0; i < 2*sharedBaseCap; i++ {
		sharedBase(g, g.ScalarBaseMul(big.NewInt(int64(10_000+i))), 0).Mul(k)
	}
	if n, _ := registrySizes(); n > sharedBaseCap {
		t.Fatalf("registry grew to %d tables, cap is %d", n, sharedBaseCap)
	}
	// An evicted base must still work (rebuilt transparently).
	if !g.Equal(sharedBase(g, base, 0).Mul(k), g.ScalarMul(base, k)) {
		t.Fatal("re-registered base diverged")
	}
}

// TestSharedBaseThreshold: at threshold 0, at the default and at "never",
// every shared handle agrees with ScalarMul/Add below the threshold, on a
// batch that crosses it and past it, and the base gets its table on the
// call that takes its count past the threshold, never before or twice.
func TestSharedBaseThreshold(t *testing.T) {
	for _, g := range []Group{TestSchnorr(), BN254G1()} {
		for _, threshold := range []int64{0, tableThreshold, math.MaxInt64} {
			t.Run(fmt.Sprintf("%s/%d", g.Name(), threshold), func(t *testing.T) {
				cg := newCountingTables(g)
				base := g.ScalarBaseMul(big.NewInt(424242))
				served := int64(0)
				after := func(n int) {
					served += int64(n)
					want := int64(0)
					if served > threshold {
						want = 1
					}
					if got := cg.builds.Load(); got != want {
						t.Fatalf("after %d multiplications at threshold %d: %d table builds, want %d",
							served, threshold, got, want)
					}
				}
				// n Muls and a MulMany of n+1 stay within the default
				// threshold; the MulManyAdd of n+1 that follows crosses it.
				n := int(tableThreshold-1) / 2
				checkHandle(t, g, base, sharedBase(cg, base, threshold), precompScalars(g, n-4, 7), after)
				checkHandle(t, g, base, sharedBase(cg, base, threshold), precompScalars(g, 4, 8), after)
			})
		}
	}
}

// TestSharedBaseOneBuildConcurrent: concurrent callers that together take a
// base past the threshold get exactly one table build between them, and
// callers that together stay below it get none.
func TestSharedBaseOneBuildConcurrent(t *testing.T) {
	g := TestSchnorr()
	ks := precompScalars(g, 4, 5)
	for _, tc := range []struct {
		name          string
		callers, muls int
		builds        int64
	}{
		{"hot", 8, 4 * tableThreshold, 1},
		{"cold", 3, len(ks), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cg := newCountingTables(g)
			base := g.ScalarBaseMul(big.NewInt(31337))
			var wg sync.WaitGroup
			for c := 0; c < tc.callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for done := 0; done < tc.muls; done += len(ks) {
						got := SharedBase(cg, base).MulManyAdd(ks, nil)
						for i, k := range ks {
							if !g.Equal(got[i], g.ScalarMul(base, k)) {
								t.Errorf("MulManyAdd[%d] diverged", i)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			if got := cg.builds.Load(); got != tc.builds {
				t.Fatalf("%d callers: %d table builds, want %d", tc.callers, got, tc.builds)
			}
		})
	}
}

// TestSharedBaseColdBasesKeepTables: bases that stay below the threshold,
// however many, never evict a built table, and the counts stay within
// their own cap.
func TestSharedBaseColdBasesKeepTables(t *testing.T) {
	g := TestSchnorr()
	cg := newCountingTables(g)
	hot := g.ScalarBaseMul(big.NewInt(2718))
	k := big.NewInt(1234567)
	sharedBase(cg, hot, 0).Mul(k)
	for i := 0; i < 2*sharedCountCap; i++ {
		SharedBase(cg, g.ScalarBaseMul(big.NewInt(int64(50_000+i)))).Mul(k)
	}
	if _, n := registrySizes(); n > sharedCountCap {
		t.Fatalf("%d bases counting, cap is %d", n, sharedCountCap)
	}
	if !g.Equal(sharedBase(cg, hot, 0).Mul(k), g.ScalarMul(hot, k)) {
		t.Fatal("hot base diverged")
	}
	if got := cg.builds.Load(); got != 1 {
		t.Fatalf("%d table builds, want the hot base's one", got)
	}
}

// TestSharedBaseGenerator: the BN254 generator is served from the
// process-wide table ScalarBaseMul uses, however many other bases pass
// through the registry, and never takes a registry slot.
func TestSharedBaseGenerator(t *testing.T) {
	g := BN254G1()
	k := big.NewInt(55)
	for i := 0; i < 2*sharedBaseCap; i++ {
		SharedBase(g, g.ScalarBaseMul(big.NewInt(int64(70_000+i)))).Mul(k)
	}
	gen := g.Generator()
	fb, ok := SharedBase(g, gen).(bn254FixedBase)
	if !ok || fb.t != bn254.G1GeneratorTable() {
		t.Fatalf("generator served by %T, want the process-wide generator table", fb)
	}
	if !g.Equal(fb.Mul(k), g.ScalarBaseMul(k)) {
		t.Fatal("generator handle diverged from ScalarBaseMul")
	}
	key := sharedBaseKey{g: g, base: string(g.Marshal(gen))}
	sharedBaseMu.Lock()
	inTables, inCounts := sharedTables.m[key] != nil, sharedCounts.m[key] != nil
	sharedBaseMu.Unlock()
	if inTables || inCounts {
		t.Fatalf("generator in the registry: tables %v, counts %v", inTables, inCounts)
	}
}

// benchSharedBase times three MulManyAdd batches of 8 per op, 24 scalars,
// the multiplications by h one requester key serves per task on the
// small_tasks_own_keys service workload, and reports the cost per scalar.
// The scalars are full-width draws from a seeded source, as real
// encryption randomness is. base(i) gives the base of op i.
func benchSharedBase(b *testing.B, base func(i int) Element) {
	g := BN254G1()
	rng := rand.New(rand.NewSource(3))
	ks := make([]*big.Int, 8)
	for i := range ks {
		ks[i] = new(big.Int).Rand(rng, g.Order())
	}
	adds := make([]Element, len(ks))
	for i := range adds {
		adds[i] = g.ScalarBaseMul(big.NewInt(int64(i + 1)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 3; j++ {
			SharedBase(g, base(i)).MulManyAdd(ks, adds)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*3*len(ks)), "ns/scalar")
}

// coldBaseSeq numbers the cold benchmark's bases across its runs, so no
// base serves a second op and accumulates a count toward its table.
var coldBaseSeq int64

// BenchmarkSharedBaseCold: a fresh base every op, so every scalar runs on
// the variable-base path (GLV ScalarMul plus Add).
func BenchmarkSharedBaseCold(b *testing.B) {
	g := BN254G1()
	bases := make([]Element, b.N)
	for i := range bases {
		coldBaseSeq++
		bases[i] = g.ScalarBaseMul(big.NewInt(90_000 + coldBaseSeq))
	}
	benchSharedBase(b, func(i int) Element { return bases[i] })
}

// BenchmarkSharedBaseHot: one base already past the threshold, so every
// scalar runs on its table.
func BenchmarkSharedBaseHot(b *testing.B) {
	g := BN254G1()
	base := g.ScalarBaseMul(big.NewInt(424243))
	SharedBase(g, base).MulMany(precompScalars(g, tableThreshold, 1))
	benchSharedBase(b, func(int) Element { return base })
}
