// Package opts defines the consolidated per-run performance options shared
// by every harness configuration (sim, market, adversary, service) and
// re-exported by the facade as dragoon.Options. The zero value of every
// field is the default, so embedding the struct costs existing
// configurations nothing, and a single Options value can be threaded
// unchanged from the facade down to the chain.
package opts

// Options bundles the three performance knobs every run resolves:
//
//   - Parallelism bounds the run's own fan-outs: the per-round worker
//     computation and the optimistic executor's worker count and default
//     (see ParallelExec). 0 follows runtime.GOMAXPROCS(0), n > 0 bounds
//     each of them at n. The crypto kernels a round calls — requester
//     decryption, PoQoEA proving and verification, batch ciphertext
//     decoding, the MSMs — run on a GOMAXPROCS-sized pool whatever the
//     setting, so 1 is not fully sequential.
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
	// Parallelism bounds the run's worker fan-out and executor
	// (0 = GOMAXPROCS); the crypto kernels ignore it.
	Parallelism int
	// BatchVerify selects batched verification (> 0 on, otherwise off).
	BatchVerify int
	// ParallelExec is the tri-state optimistic-execution override
	// (> 0 on, < 0 off, 0 = on exactly when the pool exceeds one worker).
	ParallelExec int
}
