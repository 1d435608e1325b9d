package chain

// This file implements optimistic parallel block execution — a
// Block-STM-style round executor.
//
// The chain's observable semantics are defined by sequential execution:
// every scheduled transaction of a round runs in schedule order against the
// state left by its predecessors. But the dominant per-transaction cost is
// proof verification through MeteredGroup — pure computation over state the
// transaction merely reads — and a marketplace round carries M×W
// transactions that mostly touch disjoint state (each worker writes its own
// contract keys and only reads shared phase keys). The executor exploits
// that: it speculatively runs the whole schedule in parallel against the
// pre-round snapshot, then walks the schedule in order, validating each
// transaction's recorded read set against the keys written by the
// lower-indexed transactions committed before it. A clean transaction's
// journal commits as-is; a conflicting one is thrown away and deterministically
// re-executed against the now-current committed state. Because validation
// is inductive — a transaction whose every base read is untouched by its
// predecessors executes identically in both engines — receipts, gas,
// events, storage and ledger state are byte-identical to sequential
// execution at any worker count (the conflict-matrix and randomized oracle
// tests, plus the adversary-matrix sweep, pin this down).

import (
	"context"

	"dragoon/internal/parallel"
)

// SetParallelExecution selects the round-execution engine: workers > 1
// enables the optimistic parallel executor with that many speculation
// workers, workers <= 1 restores strictly sequential execution. The knob
// only changes wall-clock behaviour — never receipts, gas, events or
// ledger state — and may be flipped between rounds.
func (c *Chain) SetParallelExecution(workers int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.execWorkers = workers
}

// StateVersion returns the chain's state version: a counter bumped once per
// committed state-writing transaction. Two observations with equal versions
// bracket a span in which no contract state or ledger movement committed.
func (c *Chain) StateVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// ExecStats reports executor telemetry: how many transactions were executed
// speculatively by the parallel engine, and how many of those failed
// read-set validation and were re-executed sequentially. Sequential rounds
// contribute to neither counter. The stats are diagnostic only — they never
// influence execution — and let tests assert that parallelism actually
// engaged (or that a conflict was actually detected).
func (c *Chain) ExecStats() (speculated, reexecuted uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.execSpeculated, c.execConflicts
}

// ResolveExecWorkers resolves a harness's tri-state parallel-execution
// override into an executor worker count: override > 0 forces the
// optimistic executor on (with at least two workers, so the parallel path
// genuinely runs even on a single-core host or under Parallelism=1),
// override < 0 forces sequential execution, and 0 — the default — enables
// the executor exactly when the effective worker pool
// (parallel.Workers(parallelism)) is larger than one.
func ResolveExecWorkers(override, parallelism int) int {
	w := parallel.Workers(parallelism)
	switch {
	case override > 0:
		if w < 2 {
			w = 2
		}
		return w
	case override < 0:
		return 1
	default:
		return w
	}
}

// executeRound executes one round's schedule. Caller holds c.mu.
func (c *Chain) executeRound(order []*Tx) []*Receipt {
	if c.execWorkers <= 1 || len(order) <= 1 {
		receipts := make([]*Receipt, 0, len(order))
		for _, tx := range order {
			rcpt, _ := c.execute(tx)
			receipts = append(receipts, rcpt)
		}
		return receipts
	}
	return c.executeRoundParallel(order)
}

// executeRoundParallel is the optimistic engine: speculate → validate →
// commit. Caller holds c.mu.
func (c *Chain) executeRoundParallel(order []*Tx) []*Receipt {
	// Phase 1 — speculate: run every scheduled transaction concurrently
	// against the pre-round snapshot. Nothing commits during this phase, so
	// the live state is a stable snapshot that all workers may read; each
	// Env records the base state its call observed.
	receipts := make([]*Receipt, len(order))
	envs := make([]*Env, len(order))
	_ = parallel.For(context.Background(), len(order), c.execWorkers, func(i int) error {
		receipts[i], envs[i] = c.run(order[i])
		return nil
	})
	c.execSpeculated += uint64(len(order))

	// Phase 2 — validate + commit in schedule order. written accumulates
	// the state keys committed by lower-indexed transactions this round;
	// reverted transactions commit no writes and contribute nothing to it,
	// but their read sets are still validated — whether a call reverts can
	// itself depend on state a predecessor wrote.
	baseVersion := c.version
	written := make(map[rwKey]struct{})
	for i, tx := range order {
		env := envs[i]
		clean := c.version == baseVersion || env == nil || !env.conflictsWith(written)
		if !clean {
			// The speculation observed state a lower-indexed transaction
			// went on to write: discard it and re-execute against the
			// committed state, exactly as the sequential engine would.
			c.execConflicts++
			receipts[i], env = c.execute(tx)
		} else {
			c.commitTx(receipts[i], env)
		}
		if env != nil && receipts[i].Err == nil {
			env.writeKeys(written)
		}
	}
	return receipts
}
