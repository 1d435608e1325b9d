// Package service is the streaming marketplace: a long-lived shared chain
// hosting an open-ended stream of HIT tasks. Where the batch harness
// (package market) runs a fixed task set for a fixed number of rounds, a
// Service accepts task submissions while the chain mines, admits them at the
// next round boundary, drives each through exactly the batch code path
// (market.Runtime / market.StepRound), and settles them individually — so a
// task admitted to a live service produces byte-for-byte the transcript it
// would produce in a batch run with the same seed and the same neighbours.
//
// The service keeps its state bounded: a settled task's contract storage and
// event log are pruned (PruneContract) and its off-chain questions deleted
// once no live task references them; retained receipts, with their events,
// are trimmed to a sliding window of DefaultRetainRounds that never cuts
// beneath the oldest active task's admission round (so replaying clients and
// copy-commit adversaries keep the history they need); the ledger's
// diagnostic event trace is capped at DefaultRetainLedgerEvents. So the heap
// stays flat however many tasks stream through (cmd/soak measures it), unless
// Config.KeepSettled keeps everything.
//
// Snapshot/Restore persists the whole world between rounds — chain, ledger,
// off-chain store, and per-task progress (admission round, seed, the answers
// each worker already produced) — and a restored service resumes
// byte-identically: clients are rebuilt from their seeds and re-stepped
// against a round-capped replay view of the restored chain
// (chain.ReplayBackend), re-drawing the same randomness and re-building the
// same cursors, then flipped live. See docs/SERVICE.md.
//
// The chain is one chain.Shard — ledger, chain and off-chain store — built
// by New (or rebuilt by Restore); every round is market.StepRound over it.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dragoon/internal/batch"
	"dragoon/internal/chain"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/market"
	"dragoon/internal/opts"
	"dragoon/internal/swarm"
	"dragoon/internal/worker"
)

// The retention windows of a bounded service (Config.KeepSettled off) and
// the default task round budget (see Config).
const (
	DefaultRetainRounds       = 64
	DefaultRetainLedgerEvents = 4096
	DefaultTaskRoundBudget    = 64
	latencyRing               = 4096
)

// ErrClosed is returned by submissions to a closed service.
var ErrClosed = errors.New("service: closed")

// ErrSnapshotVersion is wrapped by Restore when a snapshot's version is not
// one this build can read.
var ErrSnapshotVersion = errors.New("service: unsupported snapshot version")

// Config configures a streaming marketplace service.
type Config struct {
	// Group selects the crypto backend for every task.
	Group group.Group
	// Population is the shared worker pool task specs enroll from, identical
	// in role to market.Config.Population. Each member is funded once.
	Population []worker.Model
	// Scheduler is the network adversary for the shared chain (honest FIFO
	// if nil). It must be stateless across rounds if the service is to be
	// snapshotted (the FIFO default is).
	Scheduler chain.Scheduler
	// SharedKey optionally makes every requester share one ElGamal key pair
	// (the paper's §VI key-reuse deployment).
	SharedKey *elgamal.PrivateKey
	// Seed derives per-task randomness streams by admission index, exactly
	// as market.Config.Seed derives them by task index.
	Seed int64
	// WorkerBalance funds each population member's ledger account once.
	WorkerBalance ledger.Amount
	// KeepSettled keeps everything: settled contracts' storage, event logs
	// and off-chain content, every receipt and the whole ledger event trace,
	// with no pruning, trimming or trace cap — the diagnostic mode the
	// equivalence and invariant tests run in. Bounded state needs it off.
	KeepSettled bool
	// TaskRoundBudget is how many rounds an admitted task may stay unsettled
	// before the service retires it as expired (default 64). Expired tasks
	// keep their contract (escrow may still hold coins) but stop pinning the
	// retention window.
	TaskRoundBudget int
	// Manual disables the background mining goroutine: the caller advances
	// the service one round at a time with Step. Deterministic tests and the
	// snapshot/restore path use manual mode.
	Manual bool
	// Options consolidates the execution knobs — Parallelism, BatchVerify,
	// ParallelExec — shared with every other run mode.
	opts.Options
}

func (c *Config) taskRoundBudget() int {
	if c.TaskRoundBudget <= 0 {
		return DefaultTaskRoundBudget
	}
	return c.TaskRoundBudget
}

// TaskStatus is the settlement report delivered for one submitted task.
type TaskStatus struct {
	// ID is the task (and contract) identifier.
	ID string
	// AdmittedRound and SettledRound are the chain rounds the task entered
	// and left the service at.
	AdmittedRound int
	SettledRound  int
	// Expired marks a task retired unsettled after its round budget.
	Expired bool
	// Err is set when the task failed admission (bad spec, duplicate
	// contract ID); such a task never ran.
	Err error
	// Result is the task's end-state report — exactly what a batch run
	// reports for the same task. Nil when Expired or Err is set.
	Result *market.TaskResult
}

// Stats is a point-in-time summary of the stream.
type Stats struct {
	// Round is the chain's current round.
	Round int
	// Active and Queued count tasks running and awaiting admission.
	Active int
	Queued int
	// Admitted, Settled, Expired and Rejected count tasks over the service's
	// lifetime (Settled counts both finalized and cancelled tasks).
	Admitted uint64
	Settled  uint64
	Expired  uint64
	Rejected uint64
	// QuestionsSettled sums N over settled tasks — the stream's throughput
	// numerator.
	QuestionsSettled uint64
	// P50Settle and P99Settle are settlement-latency percentiles (admission
	// to settlement, wall clock) over the most recent settled tasks.
	P50Settle time.Duration
	P99Settle time.Duration
}

// taskState is one admitted task riding the shared chain.
type taskState struct {
	rt         *market.Runtime
	index      int
	seed       int64
	admitted   int // chain round
	admittedAt time.Time
	questions  swarm.Digest
}

// Service is a long-lived streaming marketplace over one shared chain.
type Service struct {
	cfg      Config
	sh       *chain.Shard
	auditor  *market.Auditor // nil when batch verify is off
	popAddrs []chain.Address

	// mu guards the chain substrate and the active task set; it is held for
	// the whole of a mined round.
	mu        sync.Mutex
	active    []*taskState
	nextIndex int
	content   map[swarm.Digest]int // live references to off-chain content

	// qmu guards the admission queue, the result queue and the counters, so
	// SubmitTask and Poll never wait on mining. Lock order: mu before qmu.
	qmu       sync.Mutex
	queue     []market.TaskSpec
	results   []TaskStatus
	closed    bool
	err       error
	admitted  uint64
	settled   uint64
	expired   uint64
	rejected  uint64
	questions uint64
	latencies []time.Duration
	latPos    int

	wake chan struct{}
	done chan struct{}
}

// New starts a service. Unless cfg.Manual is set, a background goroutine
// mines rounds whenever tasks are queued or active and parks when idle; Close
// stops it.
func New(cfg Config) (*Service, error) {
	if cfg.Group == nil {
		return nil, errors.New("service: no group backend")
	}
	sh := chain.NewShard(0, cfg.Scheduler)
	sh.Chain.SetParallelExecution(chain.ResolveExecWorkers(cfg.ParallelExec, cfg.Parallelism))
	s := newService(cfg, sh)
	if cfg.WorkerBalance > 0 {
		for _, a := range s.popAddrs {
			sh.Ledger.Mint(ledger.AccountID(a), cfg.WorkerBalance)
		}
	}
	s.start()
	return s, nil
}

// newService wires a service shell over an existing chain substrate (fresh
// in New, restored in Restore). It does not mint or start the background
// loop.
func newService(cfg Config, sh *chain.Shard) *Service {
	s := &Service{
		cfg:     cfg,
		sh:      sh,
		content: make(map[swarm.Digest]int),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	s.popAddrs = make([]chain.Address, len(cfg.Population))
	for i, m := range cfg.Population {
		s.popAddrs[i] = market.WorkerAddr(i, m.Name)
	}
	if batch.Resolve(cfg.BatchVerify) {
		s.auditor = market.NewAuditor(cfg.Group)
	}
	return s
}

func (s *Service) start() {
	if s.cfg.Manual {
		close(s.done)
		return
	}
	go s.run()
}

// run is the background mining loop: one step per iteration, parked on the
// wake channel while there is nothing to do.
func (s *Service) run() {
	defer close(s.done)
	for {
		s.qmu.Lock()
		stop := s.closed || s.err != nil
		queued := len(s.queue) > 0
		s.qmu.Unlock()
		if stop {
			return
		}
		s.mu.Lock()
		idle := !queued && len(s.active) == 0
		s.mu.Unlock()
		if idle {
			<-s.wake
			continue
		}
		if err := s.step(context.Background()); err != nil {
			s.qmu.Lock()
			s.err = err
			s.qmu.Unlock()
			return
		}
	}
}

func (s *Service) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// SubmitTask queues one task for admission at the next round boundary. The
// spec's fields mean exactly what they mean in a batch market.Config: in
// particular, a zero spec.Seed derives the task's randomness stream from the
// service seed and the task's admission index, so submitting specs in a batch
// run's task order reproduces that run. SubmitTask never waits on mining.
func (s *Service) SubmitTask(spec market.TaskSpec) error {
	if spec.Instance == nil {
		return errors.New("service: task has no instance")
	}
	if spec.Instance.Task.ID == "" {
		return errors.New("service: task has no ID")
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.err != nil {
		return fmt.Errorf("service: stream failed: %w", s.err)
	}
	for _, q := range s.queue {
		if q.Instance.Task.ID == spec.Instance.Task.ID {
			return fmt.Errorf("service: task %q already queued", spec.Instance.Task.ID)
		}
	}
	s.queue = append(s.queue, spec)
	s.signal()
	return nil
}

// Poll drains the settlement reports accumulated since the previous Poll, in
// settlement order. Each task is reported exactly once.
func (s *Service) Poll() []TaskStatus {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	out := s.results
	s.results = nil
	return out
}

// Err returns the error that stopped the stream, if any.
func (s *Service) Err() error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.err
}

// Close stops the service: no further submissions are accepted, the
// background loop (if any) finishes its current round and exits. Close
// returns the error that stopped the stream, if any. Queued-but-unadmitted
// and still-active tasks are left unsettled; Poll remains usable.
func (s *Service) Close() error {
	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		<-s.done
		return s.Err()
	}
	s.closed = true
	s.qmu.Unlock()
	s.signal()
	<-s.done
	return s.Err()
}

// Step advances a manual-mode service one round: queued tasks are admitted,
// every active task advances through one mined round (exactly
// market.StepRound), settled tasks are reported and
// pruned, and retention windows are enforced. A step with nothing queued and
// nothing active is a no-op (the chain does not mine empty rounds on idle).
func (s *Service) Step(ctx context.Context) error {
	if !s.cfg.Manual {
		return errors.New("service: Step on a background-mode service (set Config.Manual)")
	}
	s.qmu.Lock()
	closed, failed := s.closed, s.err
	s.qmu.Unlock()
	if failed != nil {
		return fmt.Errorf("service: stream failed: %w", failed)
	}
	if closed {
		return ErrClosed
	}
	return s.step(ctx)
}

// step runs one round: admit, mine, settle, trim.
func (s *Service) step(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	s.qmu.Lock()
	queue := s.queue
	s.queue = nil
	s.qmu.Unlock()
	for _, spec := range queue {
		s.admitLocked(spec)
	}
	if len(s.active) == 0 {
		return nil
	}

	rts := make([]*market.Runtime, len(s.active))
	for i, st := range s.active {
		rts[i] = st.rt
	}
	if err := market.StepRound(ctx, s.sh.Chain, rts, s.cfg.Parallelism, s.auditor); err != nil {
		return err
	}
	return s.settleLocked()
}

// admitLocked funds and launches one queued spec. Admission failures are
// reported through Poll rather than stopping the stream; a failed admission
// does not consume an admission index, so the seeds of subsequent tasks match
// the batch run that never contained the bad spec.
func (s *Service) admitLocked(spec market.TaskSpec) {
	seed := spec.Seed
	if seed == 0 {
		seed = market.DerivedTaskSeed(s.cfg.Seed, s.nextIndex)
	}
	rt, err := market.NewRuntime(market.RuntimeConfig{
		Spec:        spec,
		Index:       s.nextIndex,
		Seed:        seed,
		Group:       s.cfg.Group,
		Backend:     s.sh.Chain,
		Store:       s.sh.Store,
		Population:  s.cfg.Population,
		PopAddrs:    s.popAddrs,
		SharedKey:   s.cfg.SharedKey,
		BatchVerify: s.cfg.BatchVerify,
	})
	if err != nil {
		s.reject(spec, err)
		return
	}
	for _, st := range s.active {
		if st.rt.ID() == rt.ID() {
			s.reject(spec, fmt.Errorf("service: task %q already active", rt.ID()))
			return
		}
	}
	rt.Fund(s.sh.Ledger)
	if err := rt.Launch(); err != nil {
		s.reject(spec, err)
		return
	}
	if s.auditor != nil {
		s.auditor.Register(rt.ID(), rt.RequesterKey().H)
	}
	st := &taskState{
		rt:         rt,
		index:      s.nextIndex,
		seed:       seed,
		admitted:   s.sh.Chain.Round(),
		admittedAt: time.Now(),
		questions:  swarm.Address(spec.Instance.Task.MarshalQuestions()),
	}
	s.content[st.questions]++
	s.active = append(s.active, st)
	s.nextIndex++
	s.qmu.Lock()
	s.admitted++
	s.qmu.Unlock()
}

func (s *Service) reject(spec market.TaskSpec, err error) {
	id := ""
	if spec.Instance != nil {
		id = spec.Instance.Task.ID
	}
	s.qmu.Lock()
	s.rejected++
	s.results = append(s.results, TaskStatus{ID: id, Err: err})
	s.qmu.Unlock()
}

// settleLocked reaps settled and expired tasks after a mined round, prunes
// their state, and enforces the retention windows.
func (s *Service) settleLocked() error {
	round := s.sh.Chain.Round()
	budget := s.cfg.taskRoundBudget()
	keep := s.active[:0]
	var done []TaskStatus
	var lats []time.Duration
	var questions uint64
	var expired uint64
	for _, st := range s.active {
		switch {
		case st.rt.Finished():
			res, err := st.rt.Result(s.sh.Chain, s.sh.Ledger)
			if err != nil {
				return err
			}
			if err := s.retireLocked(st, true); err != nil {
				return err
			}
			done = append(done, TaskStatus{
				ID:            res.ID,
				AdmittedRound: st.admitted,
				SettledRound:  round,
				Result:        &res,
			})
			lats = append(lats, time.Since(st.admittedAt))
			questions += uint64(st.rt.Questions())
		case round-st.admitted >= budget:
			// The task's contract is not pruned: escrow may still hold
			// coins, and conservation outranks compaction.
			if err := s.retireLocked(st, false); err != nil {
				return err
			}
			expired++
			done = append(done, TaskStatus{
				ID:            string(st.rt.ID()),
				AdmittedRound: st.admitted,
				SettledRound:  round,
				Expired:       true,
			})
		default:
			keep = append(keep, st)
		}
	}
	for i := len(keep); i < len(s.active); i++ {
		s.active[i] = nil
	}
	s.active = keep
	s.trimLocked()

	if len(done) > 0 || expired > 0 {
		s.qmu.Lock()
		s.results = append(s.results, done...)
		s.settled += uint64(len(done)) - expired
		s.expired += expired
		s.questions += questions
		for _, d := range lats {
			if len(s.latencies) < latencyRing {
				s.latencies = append(s.latencies, d)
			} else {
				s.latencies[s.latPos] = d
				s.latPos = (s.latPos + 1) % latencyRing
			}
		}
		s.qmu.Unlock()
	}
	return nil
}

// retireLocked removes a task's footprint: audit registration always;
// contract storage, event log and unreferenced off-chain content only when
// the task settled and pruning is on.
func (s *Service) retireLocked(st *taskState, prune bool) error {
	if s.auditor != nil {
		s.auditor.Unregister(st.rt.ID())
	}
	if s.content[st.questions]--; s.content[st.questions] == 0 {
		delete(s.content, st.questions)
		if prune && !s.cfg.KeepSettled {
			s.sh.Store.Delete(st.questions)
		}
	}
	if prune && !s.cfg.KeepSettled {
		if err := s.sh.Chain.PruneContract(st.rt.ID()); err != nil {
			return fmt.Errorf("service: pruning settled task: %w", err)
		}
	}
	return nil
}

// trimLocked enforces the retention windows unless KeepSettled is set: the
// retained receipts slide forward, but never past the oldest active task's
// admission round — replaying clients (restore) and receipt-scanning
// strategies (copy-commit) need the history of every live task's lifetime.
func (s *Service) trimLocked() {
	if s.cfg.KeepSettled {
		return
	}
	floor := s.sh.Chain.Round() - DefaultRetainRounds
	for _, st := range s.active {
		if st.admitted < floor {
			floor = st.admitted
		}
	}
	if floor > 0 {
		s.sh.Chain.TrimBefore(floor)
	}
	s.sh.Ledger.TrimEvents(DefaultRetainLedgerEvents)
}

// Stats reports a point-in-time summary of the stream.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	round := s.sh.Chain.Round()
	active := len(s.active)
	s.mu.Unlock()
	s.qmu.Lock()
	defer s.qmu.Unlock()
	st := Stats{
		Round:            round,
		Active:           active,
		Queued:           len(s.queue),
		Admitted:         s.admitted,
		Settled:          s.settled,
		Expired:          s.expired,
		Rejected:         s.rejected,
		QuestionsSettled: s.questions,
	}
	if n := len(s.latencies); n > 0 {
		sorted := make([]time.Duration, n)
		copy(sorted, s.latencies)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		st.P50Settle = sorted[n/2]
		st.P99Settle = sorted[(n*99)/100]
	}
	return st
}

// Chain, Ledger and AuditedProofs expose the shared substrate for
// assertions (the adversary harness builds its invariant report from them).
// Both have their own locking; reading them mid-round is safe but racy with
// a background miner — quiesce (manual mode, or Close) for exact values.
func (s *Service) Chain() *chain.Chain { return s.sh.Chain }

// Ledger returns the shared ledger.
func (s *Service) Ledger() *ledger.Ledger { return s.sh.Ledger }

// AuditedProofs counts the VPKE openings the round auditor re-verified (0
// unless batch verification is on).
func (s *Service) AuditedProofs() int {
	if s.auditor == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.auditor.Count()
}
