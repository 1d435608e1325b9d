package group

import (
	"math/big"
	"slices"
	"sync"
	"sync/atomic"

	"dragoon/internal/bn254"
)

// FixedBase is a handle for repeated scalar multiplications against one
// fixed base element. Handles are immutable and safe for concurrent use.
type FixedBase interface {
	// Mul returns k·base (k reduced modulo the group order).
	Mul(k *big.Int) Element
	// MulMany returns k·base for every scalar; nil scalars yield nil
	// results. Backends amortize shared work (e.g. one field inversion)
	// across the batch.
	MulMany(ks []*big.Int) []Element
	// MulManyAdd returns ks[i]·base + addends[i] for every i; nil addends
	// are treated as the identity, nil scalars as zero.
	MulManyAdd(ks []*big.Int, addends []Element) []Element
}

// FixedBaser is an optional Group extension for backends with native
// fixed-base precomputation (window tables). SharedBase probes for it with a
// type assertion; backends without it get a generic fallback that simply
// forwards to ScalarMul/Add.
type FixedBaser interface {
	// PrecomputeFixedBase builds a reusable multiplication handle for base.
	PrecomputeFixedBase(base Element) FixedBase
}

// genericFixedBase is the fallback handle for groups without FixedBaser:
// no precomputation, every call forwards to the group's own operations.
// Metered groups always get it, so every multiplication is charged gas
// exactly as a plain ScalarMul would be.
type genericFixedBase struct {
	g    Group
	base Element
}

func (f genericFixedBase) Mul(k *big.Int) Element { return f.g.ScalarMul(f.base, k) }

func (f genericFixedBase) MulMany(ks []*big.Int) []Element {
	out := make([]Element, len(ks))
	for i, k := range ks {
		if k == nil {
			continue
		}
		out[i] = f.g.ScalarMul(f.base, k)
	}
	return out
}

func (f genericFixedBase) MulManyAdd(ks []*big.Int, addends []Element) []Element {
	out := make([]Element, len(ks))
	for i, k := range ks {
		s := k
		if s == nil {
			s = big.NewInt(0)
		}
		e := f.g.ScalarMul(f.base, s)
		if i < len(addends) && addends[i] != nil {
			e = f.g.Add(e, addends[i])
		}
		out[i] = e
	}
	return out
}

// --- process-wide shared-table registry -------------------------------------

// sharedBaseCap bounds the built tables so long-lived service processes keep
// a flat heap: a deployment touches a handful of hot bases (requester
// public keys that serve many tasks), so the cap is generous, but a hostile
// workload cycling through bases cannot grow tables without bound.
const sharedBaseCap = 64

// sharedCountCap bounds the bases still counting toward a table. A count
// entry holds a base and a counter, a few hundred bytes, so the cap is
// generous: a base that will pay for its table crosses the threshold long
// before this many newer bases arrive, and a workload cycling through more
// bases than this only restarts counts that would not have paid.
const sharedCountCap = 4 * sharedBaseCap

// tableThreshold is how many multiplications a base serves on the
// variable-base path before SharedBase builds its table, set by the
// ski-rental rule: keep paying per multiplication until the work already
// spent equals one build, then build. On a 2-vCPU Xeon host with go1.24
// (medians of five alternating runs), a BN254 table build costs 8.8 ms
// (BenchmarkFixedBaseTableBuild), a variable-base multiplication, GLV
// ScalarMul plus Add, 98 µs (BenchmarkSharedBaseCold, MulManyAdd batches of
// 8) and a table one 14 µs (BenchmarkSharedBaseHot): 8.8 ms / 98 µs ≈ 90.
// Whatever a base goes on to serve, the rule costs it at most twice what
// the better of "never build" and "build at once" would have. A fresh key
// per task on the small_tasks_own_keys service workload serves 24
// multiplications and never builds; the shared key of imagenet_honest
// serves 424 per task and builds during its first.
const tableThreshold = 90

type sharedBaseKey struct {
	g    Group
	base string // marshaled base bytes
}

// sharedBaseEntry is one base's registry state: the multiplications it has
// served and, once they pass the threshold, its table.
type sharedBaseEntry struct {
	key    sharedBaseKey
	base   Element
	served atomic.Int64
	once   sync.Once
	table  FixedBase
}

// fifoMap is a registry map capped at max entries; adding to a full map
// evicts the oldest entry.
type fifoMap struct {
	max   int
	m     map[sharedBaseKey]*sharedBaseEntry
	order []sharedBaseKey
}

func (f *fifoMap) add(e *sharedBaseEntry) {
	if f.m == nil {
		f.m = make(map[sharedBaseKey]*sharedBaseEntry)
	}
	if len(f.order) >= f.max {
		delete(f.m, f.order[0])
		f.order = f.order[1:]
	}
	f.m[e.key] = e
	f.order = append(f.order, e.key)
}

// remove drops e if it is still the entry held under its key.
func (f *fifoMap) remove(e *sharedBaseEntry) {
	if f.m[e.key] != e {
		return
	}
	delete(f.m, e.key)
	f.order = slices.DeleteFunc(f.order, func(k sharedBaseKey) bool { return k == e.key })
}

var (
	sharedBaseMu sync.Mutex
	sharedTables = fifoMap{max: sharedBaseCap}  // bases with a table
	sharedCounts = fifoMap{max: sharedCountCap} // bases still counting
)

// SharedBase returns the process-wide fixed-base handle for (g, base). A
// base is served on the group's own variable-base path (ScalarMul and Add)
// until it has served tableThreshold multiplications; the call that would
// take it past builds its table, once, and every later call uses it. Every
// result is the same group element either way. Counting bases and built
// tables live in separate capped registries, each evicting its oldest
// entry, so cold bases never displace a table; an evicted base starts
// counting again if it reappears. The BN254 generator is served from the
// process-wide table ScalarBaseMul uses and never enters either registry.
// Groups without FixedBaser, metered decorators among them, bypass the
// registry entirely: they get the generic fallback, so every multiplication
// is charged as a plain ScalarMul and no state is shared across contracts.
func SharedBase(g Group, base Element) FixedBase {
	return sharedBase(g, base, tableThreshold)
}

// sharedBase is SharedBase with the threshold as a parameter.
func sharedBase(g Group, base Element, threshold int64) FixedBase {
	if _, ok := g.(FixedBaser); !ok {
		return genericFixedBase{g: g, base: base}
	}
	if _, ok := g.(bn254G1); ok && g.Equal(base, g.Generator()) {
		return bn254FixedBase{t: bn254.G1GeneratorTable()}
	}
	key := sharedBaseKey{g: g, base: string(g.Marshal(base))}

	sharedBaseMu.Lock()
	e := sharedTables.m[key]
	if e == nil {
		e = sharedCounts.m[key]
	}
	if e == nil {
		e = &sharedBaseEntry{key: key, base: base}
		sharedCounts.add(e)
	}
	sharedBaseMu.Unlock()
	return sharedHandle{e: e, threshold: threshold}
}

// sharedHandle is the FixedBase SharedBase returns: every call counts its
// scalars against the entry and is served by serve's choice of path.
type sharedHandle struct {
	e         *sharedBaseEntry
	threshold int64
}

// serve returns the handle for the next n multiplications: the variable-base
// path while the base's count, these n included, stays within the
// threshold, and the table from then on.
func (h sharedHandle) serve(n int) FixedBase {
	e := h.e
	if e.served.Add(int64(n)) <= h.threshold {
		return genericFixedBase{g: e.key.g, base: e.base}
	}
	e.once.Do(e.build)
	return e.table
}

// build moves e from the counting registry to the table registry, then
// builds its table outside the lock, so callers for other bases are not
// serialized behind it.
func (e *sharedBaseEntry) build() {
	sharedBaseMu.Lock()
	sharedCounts.remove(e)
	if sharedTables.m[e.key] == nil {
		sharedTables.add(e)
	}
	sharedBaseMu.Unlock()
	e.table = e.key.g.(FixedBaser).PrecomputeFixedBase(e.base)
}

func (h sharedHandle) Mul(k *big.Int) Element { return h.serve(1).Mul(k) }

func (h sharedHandle) MulMany(ks []*big.Int) []Element { return h.serve(len(ks)).MulMany(ks) }

func (h sharedHandle) MulManyAdd(ks []*big.Int, addends []Element) []Element {
	return h.serve(len(ks)).MulManyAdd(ks, addends)
}
