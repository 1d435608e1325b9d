package elgamal

import (
	"math/big"
	"sync"

	"dragoon/internal/group"
)

// shortLogLinearMax is the bound below which the solver scans linearly
// instead of building a baby-step table.
const shortLogLinearMax = 32

// shortLogStepCap bounds the baby-step table size so absurd range bounds
// (up to math.MaxInt64) cannot allocate gigabytes; BSGS stays correct with
// a smaller-than-√bound step, it just takes more giant steps.
const shortLogStepCap = 1 << 16

// shortLogStep returns the baby-step size ⌈√bound⌉ (capped), computed with
// big.Int arithmetic so bounds near the int64 square-root ceiling can
// neither overflow nor loop. bound must be > 0.
func shortLogStep(bound int64) int64 {
	s := new(big.Int).Sqrt(big.NewInt(bound)) // floor(√bound)
	step := s.Int64()
	if step*step < bound {
		step++ // ceiling; step ≤ 3037000500 so step*step cannot overflow here
	}
	if step > shortLogStepCap {
		step = shortLogStepCap
	}
	return step
}

// ScanOps counts the group operations a short-log scan performed, split by
// the two EVM precompile prices: Adds covers Add and Neg calls (ECADD),
// Muls covers ScalarBaseMul calls (ECMUL). The cached ShortLogTable path
// reports the exact operations the uncached metered scan would have
// executed, so contracts can charge identical gas without redoing the work.
type ScanOps struct {
	Adds, Muls uint64
}

// ShortLogTable precomputes the baby steps of a baby-step/giant-step solver
// for a fixed range bound, so that a requester decrypting hundreds of
// ciphertexts in one task (K workers × N questions, all over the same small
// answer range) amortizes the table across every decryption. Tables are
// immutable after construction and safe for concurrent use.
type ShortLogTable struct {
	g     group.Group
	bound int64
	step  int64
	baby  map[string]int64
	giant group.Element // −step·g; nil for the linear-scan regime
}

// NewShortLogTable builds a table for logs in [0, bound). Non-positive
// bounds yield a table whose every lookup reports "not found"; bounds at or
// below the linear-scan threshold keep the baby map but no giant step.
func NewShortLogTable(g group.Group, bound int64) *ShortLogTable {
	if bound <= 0 {
		return &ShortLogTable{g: g, bound: 0}
	}
	t := &ShortLogTable{g: g, bound: bound}
	if bound <= shortLogLinearMax {
		// Index the full range directly; Lookup answers with map hits while
		// LookupOps replays the linear scan's gas shape.
		t.baby = make(map[string]int64, bound)
		cur := g.Identity()
		gen := g.Generator()
		for m := int64(0); m < bound; m++ {
			t.baby[string(g.Marshal(cur))] = m
			cur = g.Add(cur, gen)
		}
		return t
	}
	t.step = shortLogStep(bound)
	t.baby = make(map[string]int64, t.step)
	cur := g.Identity()
	gen := g.Generator()
	for j := int64(0); j < t.step; j++ {
		t.baby[string(g.Marshal(cur))] = j
		cur = g.Add(cur, gen)
	}
	t.giant = g.Neg(g.ScalarBaseMul(big.NewInt(t.step)))
	return t
}

// Bound returns the table's range bound.
func (t *ShortLogTable) Bound() int64 { return t.bound }

// Lookup solves g^m = target for m in [0, bound), reporting success.
func (t *ShortLogTable) Lookup(target group.Element) (int64, bool) {
	m, ok, _ := t.LookupOps(target)
	return m, ok
}

// LookupOps is Lookup plus an exact replay of the group-operation count the
// equivalent uncached ShortLog scan performs (see ScanOps). Contracts use it
// to keep metered gas byte-identical while skipping the recomputation.
func (t *ShortLogTable) LookupOps(target group.Element) (int64, bool, ScanOps) {
	if t.bound == 0 {
		return 0, false, ScanOps{}
	}
	if t.giant == nil {
		// Linear regime: the uncached scan Adds once per non-matching step.
		if m, ok := t.baby[string(t.g.Marshal(target))]; ok {
			return m, true, ScanOps{Adds: uint64(m)}
		}
		return 0, false, ScanOps{Adds: uint64(t.bound)}
	}
	// BSGS regime: the uncached scan pays `step` Adds for the baby table,
	// one ScalarBaseMul + one Neg for the giant step, then one Add per
	// giant-step iteration that does not hit the baby map.
	ops := ScanOps{Adds: uint64(t.step) + 1, Muls: 1}
	probe := target
	last := (t.bound - 1) / t.step
	for i := int64(0); i <= last; i++ {
		if j, ok := t.baby[string(t.g.Marshal(probe))]; ok {
			ops.Adds += uint64(i)
			m := i*t.step + j
			if m < t.bound {
				return m, true, ops
			}
			return 0, false, ops
		}
		probe = t.g.Add(probe, t.giant)
	}
	ops.Adds += uint64(last) + 1
	return 0, false, ops
}

// DecryptMany decrypts a span of ciphertexts under sk and solves each short
// log with t; every result equals Decrypt's with the table's bound. Over a
// group with a batch variable-base kernel (group.ScalarMulManyAdder) the
// span's g^m = c2 + (r − k)·c1 take one kernel call, which recodes the key
// once and shares the span's field inversions; any other group decrypts
// element by element.
func (sk *PrivateKey) DecryptMany(t *ShortLogTable, cts []Ciphertext) []Plaintext {
	g := sk.Group
	var gms []group.Element
	if b, ok := g.(group.ScalarMulManyAdder); ok {
		r := g.Order()
		negK := new(big.Int).Mod(sk.K, r)
		negK.Sub(r, negK)
		c1s := make([]group.Element, len(cts))
		ks := make([]*big.Int, len(cts))
		c2s := make([]group.Element, len(cts))
		for i, ct := range cts {
			c1s[i], ks[i], c2s[i] = ct.C1, negK, ct.C2
		}
		gms = b.ScalarMulManyAdd(c1s, ks, c2s)
	} else {
		gms = make([]group.Element, len(cts))
		for i, ct := range cts {
			gms[i] = group.Sub(g, ct.C2, g.ScalarMul(ct.C1, sk.K))
		}
	}
	out := make([]Plaintext, len(cts))
	for i, gm := range gms {
		out[i].Element = gm
		out[i].Value, out[i].InRange = t.Lookup(gm)
	}
	return out
}

// --- process-wide shared-table registry -------------------------------------

// sharedTableCap bounds the short-log registry the same way the group
// package caps its fixed-base tables: plenty for real deployments (a few
// distinct range sizes), bounded against hostile churn.
const sharedTableCap = 64

type sharedTableKey struct {
	g     group.Group
	bound int64
}

type sharedTableEntry struct {
	once sync.Once
	t    *ShortLogTable
}

var (
	sharedTableMu   sync.Mutex
	sharedTables    map[sharedTableKey]*sharedTableEntry
	sharedTableFifo []sharedTableKey
)

// SharedShortLogTable returns the process-wide table for (g, bound),
// building it at most once per distinct pair. Callers must pass an
// UNMETERED group — a metered decorator here would charge the build to one
// arbitrary contract call and nothing to the rest; contracts instead pass
// their raw group and charge gas from LookupOps. The registry is capped
// with FIFO eviction, like group.SharedBase.
func SharedShortLogTable(g group.Group, bound int64) *ShortLogTable {
	key := sharedTableKey{g: g, bound: bound}

	sharedTableMu.Lock()
	if sharedTables == nil {
		sharedTables = make(map[sharedTableKey]*sharedTableEntry)
	}
	e := sharedTables[key]
	if e == nil {
		if len(sharedTableFifo) >= sharedTableCap {
			oldest := sharedTableFifo[0]
			sharedTableFifo = sharedTableFifo[1:]
			delete(sharedTables, oldest)
		}
		e = &sharedTableEntry{}
		sharedTables[key] = e
		sharedTableFifo = append(sharedTableFifo, key)
	}
	sharedTableMu.Unlock()

	e.once.Do(func() { e.t = NewShortLogTable(g, bound) })
	return e.t
}
