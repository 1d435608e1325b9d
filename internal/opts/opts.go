// Package opts defines the consolidated per-run performance options shared
// by every harness configuration (sim, market, adversary, service) and
// re-exported by the facade as dragoon.Options. The zero value of every
// field is the default, so embedding the struct costs existing
// configurations nothing, and a single Options value can be threaded
// unchanged from the facade down to the chain.
package opts

// Options bundles the three performance knobs every run resolves:
//
//   - Parallelism bounds how many goroutines the work pool
//     (internal/parallel) uses for the run's crypto and worker fan-outs:
//     0 follows the process default (runtime.NumCPU() unless overridden via
//     parallel.SetDefaultWorkers), 1 forces fully sequential execution,
//     n > 1 bounds the pool at n.
//   - BatchVerify selects batched proof verification: > 0 turns folded
//     verification on; 0 and < 0 keep per-proof verification.
//   - ParallelExec selects optimistic parallel block execution on the run's
//     chain: > 0 forces the Block-STM-style round executor on, < 0 forces
//     strictly sequential round execution, 0 enables it exactly when the
//     effective worker pool is larger than one.
//
// Whatever the settings, a seeded run's transcript — receipts, gas, events,
// payments — is byte-identical: the knobs only change wall-clock time.
type Options struct {
	// Parallelism bounds the run's work pool (0 = process default, 1 =
	// sequential).
	Parallelism int
	// BatchVerify selects batched verification (> 0 on, otherwise off).
	BatchVerify int
	// ParallelExec is the tri-state optimistic-execution override
	// (> 0 on, < 0 off, 0 = on exactly when the pool exceeds one worker).
	ParallelExec int
}
