package group

import (
	"math/big"
	"sync"
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
// fixed-base precomputation (window tables). Callers probe for it with a
// type assertion via Precompute; backends without it get a generic
// fallback that simply forwards to ScalarMul/Add.
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

// Precompute returns a fixed-base multiplication handle for base. Backends
// implementing FixedBaser get a native window table; everything else gets
// the generic ScalarMul fallback. Either way the results are identical
// group elements.
func Precompute(g Group, base Element) FixedBase {
	if fb, ok := g.(FixedBaser); ok {
		return fb.PrecomputeFixedBase(base)
	}
	return genericFixedBase{g: g, base: base}
}

// --- process-wide shared-table registry -------------------------------------

// sharedBaseCap bounds the registry so long-lived service processes keep a
// flat heap: a deployment touches a handful of fixed bases (generator,
// requester public keys, commitment bases), so the cap is generous, but a
// hostile workload cycling through bases cannot grow tables without bound.
const sharedBaseCap = 64

type sharedBaseKey struct {
	g    Group
	base string // marshaled base bytes
}

type sharedBaseEntry struct {
	once sync.Once
	fb   FixedBase
}

var (
	sharedBaseMu   sync.Mutex
	sharedBases    map[sharedBaseKey]*sharedBaseEntry
	sharedBaseFifo []sharedBaseKey
)

// SharedBase returns the process-wide fixed-base handle for (g, base),
// building the underlying table at most once per distinct base. Only native
// FixedBaser backends are cached — generic fallbacks are free to construct,
// and metered decorators must never share state across contracts, so both
// bypass the registry entirely. The registry is capped; once full, the
// oldest entry is evicted (the table is rebuilt if that base reappears).
func SharedBase(g Group, base Element) FixedBase {
	fber, ok := g.(FixedBaser)
	if !ok {
		return genericFixedBase{g: g, base: base}
	}
	key := sharedBaseKey{g: g, base: string(g.Marshal(base))}

	sharedBaseMu.Lock()
	if sharedBases == nil {
		sharedBases = make(map[sharedBaseKey]*sharedBaseEntry)
	}
	e := sharedBases[key]
	if e == nil {
		if len(sharedBaseFifo) >= sharedBaseCap {
			oldest := sharedBaseFifo[0]
			sharedBaseFifo = sharedBaseFifo[1:]
			delete(sharedBases, oldest)
		}
		e = &sharedBaseEntry{}
		sharedBases[key] = e
		sharedBaseFifo = append(sharedBaseFifo, key)
	}
	sharedBaseMu.Unlock()

	// The build runs outside the registry lock so concurrent callers for
	// other bases are not serialized behind an expensive table build.
	e.once.Do(func() { e.fb = fber.PrecomputeFixedBase(base) })
	return e.fb
}

// sharedBaseCount reports the registry size (test hook).
func sharedBaseCount() int {
	sharedBaseMu.Lock()
	defer sharedBaseMu.Unlock()
	return len(sharedBases)
}
