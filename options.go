package dragoon

import (
	"dragoon/internal/opts"
)

// Options bundles the per-run performance knobs shared by every entry point:
// it is embedded in SimulationConfig, MarketplaceConfig, ScenarioOptions and
// ServiceConfig, so one Options value configures a whole run regardless of
// which harness executes it:
//
//   - Parallelism bounds the run's own fan-outs — the per-round worker
//     computation, concurrent shard mining and the optimistic executor's
//     default: 0 follows the process default (runtime.NumCPU()), n > 0
//     bounds each at n. The crypto kernels inside a round (decryption,
//     PoQoEA proving and verification, the MSMs) run on the process-wide
//     pool whatever the setting, so Parallelism 1 is not fully sequential.
//   - BatchVerify selects batched proof verification: > 0 turns folded
//     verification on; 0 and < 0 keep per-proof verification.
//   - ParallelExec selects optimistic parallel block execution on the run's
//     chain: > 0 forces the Block-STM-style round executor on, < 0 forces
//     strictly sequential round execution, 0 enables it exactly when the
//     effective worker pool is larger than one.
//
// The zero value is the default everywhere, so configurations that never
// mention Options need not change. Whatever the settings, a seeded run's
// transcript — receipts, gas, events, payments — is byte-identical: the
// knobs only change wall-clock time.
type Options = opts.Options
