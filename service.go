package dragoon

import (
	"dragoon/internal/service"
)

// Service is a long-lived streaming marketplace: one shared simulated chain
// hosting an open-ended stream of HIT tasks. Tasks are submitted with
// SubmitTask while the chain mines, admitted at the next round boundary,
// driven through exactly the batch code path, and settled individually — a
// task admitted to a live service produces byte-for-byte the transcript it
// would produce in a SimulateMarketplace run with the same seed and the same
// neighbours. The service keeps its state bounded (settled contracts pruned,
// history trimmed to a sliding window) and can be snapshotted between rounds
// and restored byte-identically. See docs/SERVICE.md for the lifecycle.
type Service = service.Service

// ServiceConfig configures a streaming marketplace service: the shared
// population and crypto backend, the retention knobs bounding on-chain
// history, the per-task round budget, and the consolidated Options.
type ServiceConfig = service.Config

// ServiceTaskStatus is the settlement report delivered by Service.Poll for
// one submitted task.
type ServiceTaskStatus = service.TaskStatus

// ServiceStats is a point-in-time summary of a running stream: queue depths,
// lifetime task counters, and settlement-latency percentiles.
type ServiceStats = service.Stats

// ServiceRehydrate resolves a task ID back to its full specification when a
// service is restored from a snapshot. Snapshots persist data, not code:
// worker models, policies and instances must be re-supplied by the caller.
type ServiceRehydrate = service.Rehydrate

// ErrServiceClosed is returned by submissions to a closed Service.
var ErrServiceClosed = service.ErrClosed

// ErrServiceSnapshotVersion is wrapped by RestoreService when a snapshot's
// version is not one this build can read.
var ErrServiceSnapshotVersion = service.ErrSnapshotVersion

// NewService starts a streaming marketplace service. Unless cfg.Manual is
// set, a background goroutine mines rounds whenever tasks are queued or
// active; SubmitTask and Poll never block on mining. Close drains the
// goroutine and reports any terminal error.
func NewService(cfg ServiceConfig) (*Service, error) {
	return service.New(cfg)
}

// RestoreService resumes a service from a Snapshot. cfg must carry the same
// code-bearing configuration (group, population, scheduler, options) as the
// snapshotted service; rehydrate re-supplies each active task's spec. The
// restored service continues byte-identically for populations whose models
// are deterministic functions of their recorded answers and observed chain
// state (all built-in models qualify once their answers are recorded).
func RestoreService(cfg ServiceConfig, data []byte, rehydrate ServiceRehydrate) (*Service, error) {
	return service.Restore(cfg, data, rehydrate)
}
