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
// once no live task references them; retained receipts and global events are
// trimmed to a sliding window that never cuts beneath the oldest active
// task's admission round (so replaying clients and copy-commit adversaries
// keep the history they need); the ledger's diagnostic event trace is capped.
// Under those defaults the heap stays flat however many tasks stream through
// (cmd/soak measures it).
//
// Snapshot/Restore persists the whole world between rounds — chain, ledger,
// off-chain store, and per-task progress (admission round, seed, the answers
// each worker already produced) — and a restored service resumes
// byte-identically: clients are rebuilt from their seeds and re-stepped
// against a round-capped replay view of the restored chain
// (chain.ReplayBackend), re-drawing the same randomness and re-building the
// same cursors, then flipped live. See docs/SERVICE.md.
//
// The chain is a chain.ShardSet of max(1, Config.Shards) independent chains
// mined in lockstep, and one shared chain is its one-shard case: admission
// routes each task to one shard under Config.Placement, every round is
// market.StepRound over the whole set, and retention, pruning and snapshots
// all operate per shard — pruning a settled task on shard A never disturbs
// cursors or history on shard B. Tasks never span shards inside the
// service, so a sharded stream settles each task byte-identically to the
// unsharded stream of the same submissions.
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

// Defaults for the retention and scheduling knobs (see Config).
const (
	DefaultRetainRounds       = 64
	DefaultRetainLedgerEvents = 4096
	DefaultTaskRoundBudget    = 64
	latencyRing               = 4096
)

// ErrClosed is returned by submissions to a closed service.
var ErrClosed = errors.New("service: closed")

// Config configures a streaming marketplace service.
type Config struct {
	// Group selects the crypto backend for every task.
	Group group.Group
	// Population is the shared worker pool task specs enroll from, identical
	// in role to market.Config.Population. Each member is funded once.
	Population []worker.Model
	// Scheduler is the network adversary for the shared chain (honest FIFO
	// if nil). It must be stateless across rounds if the service is to be
	// snapshotted (the FIFO default is); with Shards > 1 the one value is
	// shared by every shard, so it must be stateless there too.
	Scheduler chain.Scheduler
	// Shards splits the service across max(1, Shards) independent chains
	// mined in lockstep (0 and 1 both mean one shared chain). Each shard
	// owns its ledger, chain and off-chain store; admitted tasks are routed
	// to shards by Placement and never span shards.
	Shards int
	// Placement picks each admitted task's shard:
	// round-robin by admission index (default), or least-loaded by the
	// enrolled-worker count of currently active tasks.
	Placement market.Placement
	// SharedKey optionally makes every requester share one ElGamal key pair
	// (the paper's §VI key-reuse deployment).
	SharedKey *elgamal.PrivateKey
	// Seed derives per-task randomness streams by admission index, exactly
	// as market.Config.Seed derives them by task index.
	Seed int64
	// WorkerBalance funds each population member's ledger account once.
	WorkerBalance ledger.Amount
	// RetainRounds is the sliding window of retained receipts and global
	// events, in rounds (default 64). The window never cuts beneath the
	// oldest active task's admission round. Negative retains everything.
	RetainRounds int
	// RetainLedgerEvents caps the ledger's diagnostic event trace (default
	// 4096 newest entries). Negative retains everything.
	RetainLedgerEvents int
	// KeepSettled retains settled contracts' storage, event logs and
	// off-chain content instead of pruning them — the diagnostic mode the
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

func (c *Config) retainRounds() int {
	if c.RetainRounds == 0 {
		return DefaultRetainRounds
	}
	return c.RetainRounds
}

func (c *Config) taskRoundBudget() int {
	if c.TaskRoundBudget <= 0 {
		return DefaultTaskRoundBudget
	}
	return c.TaskRoundBudget
}

func (c *Config) shardCount() int { return max(1, c.Shards) }

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
	spec       market.TaskSpec
	index      int
	seed       int64
	shard      int // the shard hosting the task's contract and content
	admitted   int // chain round
	admittedAt time.Time
	questions  swarm.Digest
}

// contentKey identifies one off-chain blob on one shard: shards have
// independent stores, so the live-reference count is per (shard, digest).
type contentKey struct {
	shard  int
	digest swarm.Digest
}

// Service is a long-lived streaming marketplace over a set of independent
// chains mined in lockstep — one shared chain when Config.Shards <= 1.
type Service struct {
	cfg    Config
	shards []*chain.Shard
	// set mines the shards in lockstep; shard 0 is the clock and report
	// shard.
	set      *chain.ShardSet
	auditors []*market.Auditor // per shard; nil when batch verify is off
	popAddrs []chain.Address

	// mu guards the chain substrate and the active task set; it is held for
	// the whole of a mined round.
	mu        sync.Mutex
	active    []*taskState
	nextIndex int
	content   map[contentKey]int // live references to off-chain content

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
	execWorkers := chain.ResolveExecWorkers(cfg.ParallelExec, cfg.Parallelism)
	shards := make([]*chain.Shard, cfg.shardCount())
	for i := range shards {
		shards[i] = chain.NewShard(i, cfg.Scheduler)
		shards[i].Chain.SetParallelExecution(execWorkers)
	}
	s, err := newService(cfg, shards)
	if err != nil {
		return nil, err
	}
	// Each population member funds on its home shard — mod-S, like the
	// sharded batch marketplace (trivially shard 0 when unsharded).
	if cfg.WorkerBalance > 0 {
		for i, a := range s.popAddrs {
			home := market.HomeShard(i, len(shards))
			shards[home].Ledger.Mint(ledger.AccountID(a), cfg.WorkerBalance)
		}
	}
	s.start()
	return s, nil
}

// newService wires a service shell over existing shard substrates (fresh in
// New, restored in Restore). It does not mint or start the background loop.
func newService(cfg Config, shards []*chain.Shard) (*Service, error) {
	set, err := chain.WrapShards(shards)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	set.SetMiners(cfg.Parallelism)
	s := &Service{
		cfg:     cfg,
		shards:  shards,
		set:     set,
		content: make(map[contentKey]int),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	s.popAddrs = make([]chain.Address, len(cfg.Population))
	for i, m := range cfg.Population {
		s.popAddrs[i] = market.WorkerAddr(i, m.Name)
	}
	if batch.Resolve(cfg.BatchVerify) {
		s.auditors = make([]*market.Auditor, len(shards))
		for i := range s.auditors {
			s.auditors[i] = market.NewAuditor(cfg.Group)
		}
	}
	return s, nil
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
// every active task advances through one mined round on its shard (exactly
// market.StepRound, at any shard count), settled tasks are reported and
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
	taskShards := make([]int, len(s.active))
	for i, st := range s.active {
		rts[i] = st.rt
		taskShards[i] = st.shard
	}
	if err := market.StepRound(ctx, s.set, rts, taskShards, s.cfg.Parallelism, s.auditors); err != nil {
		return err
	}
	return s.settleLocked()
}

// placeLocked picks the shard for the next admitted task: round-robin by
// admission index by default, or the shard whose active tasks enroll the
// fewest workers under PlaceLeastLoaded (ties to the lowest index).
func (s *Service) placeLocked(spec *market.TaskSpec) int {
	if s.cfg.Placement == market.PlaceLeastLoaded {
		load := make([]int, len(s.shards))
		for _, st := range s.active {
			load[st.shard] += market.EnrollSize(&st.spec, len(s.cfg.Population))
		}
		best := 0
		for si := 1; si < len(load); si++ {
			if load[si] < load[best] {
				best = si
			}
		}
		return best
	}
	return s.nextIndex % len(s.shards)
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
	shard := s.placeLocked(&spec)
	sh := s.shards[shard]
	rt, err := market.NewRuntime(market.RuntimeConfig{
		Spec:        spec,
		Index:       s.nextIndex,
		Seed:        seed,
		Group:       s.cfg.Group,
		Backend:     sh.Chain,
		Store:       sh.Store,
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
	rt.Fund(sh.Ledger)
	if err := rt.Launch(); err != nil {
		s.reject(spec, err)
		return
	}
	if s.auditors != nil {
		s.auditors[shard].Register(rt.ID(), rt.RequesterKey().H)
	}
	st := &taskState{
		rt:         rt,
		spec:       spec,
		index:      s.nextIndex,
		seed:       seed,
		shard:      shard,
		admitted:   sh.Chain.Round(),
		admittedAt: time.Now(),
		questions:  swarm.Address(spec.Instance.Task.MarshalQuestions()),
	}
	s.content[contentKey{shard, st.questions}]++
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
	round := s.shards[0].Chain.Round()
	budget := s.cfg.taskRoundBudget()
	keep := s.active[:0]
	var done []TaskStatus
	var lats []time.Duration
	var questions uint64
	var expired uint64
	for _, st := range s.active {
		switch {
		case st.rt.Finished():
			sh := s.shards[st.shard]
			res, err := st.rt.Result(sh.Chain, sh.Ledger)
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
	sh := s.shards[st.shard]
	if s.auditors != nil {
		s.auditors[st.shard].Unregister(st.rt.ID())
	}
	key := contentKey{st.shard, st.questions}
	if s.content[key]--; s.content[key] == 0 {
		delete(s.content, key)
		if prune && !s.cfg.KeepSettled {
			sh.Store.Delete(st.questions)
		}
	}
	if prune && !s.cfg.KeepSettled {
		if err := sh.Chain.PruneContract(st.rt.ID()); err != nil {
			return fmt.Errorf("service: pruning settled task: %w", err)
		}
	}
	return nil
}

// trimLocked enforces the retention windows: retained receipts and global
// events slide forward, but never past the oldest active task's admission
// round — replaying clients (restore) and receipt-scanning strategies
// (copy-commit) need the history of every live task's lifetime.
func (s *Service) trimLocked() {
	if s.cfg.RetainRounds >= 0 {
		// Shards mine in lockstep, so one floor serves them all; each
		// shard's window is still pinned by ITS oldest active admission, so
		// a long-lived task on shard A never forces shard B to hoard
		// history (and trimming B never breaks A's replaying clients).
		for si, sh := range s.shards {
			floor := sh.Chain.Round() - s.cfg.retainRounds()
			for _, st := range s.active {
				if st.shard == si && st.admitted < floor {
					floor = st.admitted
				}
			}
			if floor > 0 {
				sh.Chain.TrimBefore(floor)
			}
		}
	}
	if s.cfg.RetainLedgerEvents >= 0 {
		max := s.cfg.RetainLedgerEvents
		if max == 0 {
			max = DefaultRetainLedgerEvents
		}
		for _, sh := range s.shards {
			sh.Ledger.TrimEvents(max)
		}
	}
}

// Stats reports a point-in-time summary of the stream.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	round := s.shards[0].Chain.Round()
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
// On a sharded service they return shard 0's substrate; use Shards for the
// rest.
func (s *Service) Chain() *chain.Chain { return s.shards[0].Chain }

// Ledger returns the shared ledger (shard 0's when sharded).
func (s *Service) Ledger() *ledger.Ledger { return s.shards[0].Ledger }

// Shards returns the per-shard substrate handles, in index order; length 1
// on an unsharded service. Callers must not mutate the slice.
func (s *Service) Shards() []*chain.Shard { return s.shards }

// AuditedProofs counts the VPKE openings the round auditors re-verified
// across every shard (0 unless batch verification is on).
func (s *Service) AuditedProofs() int {
	if s.auditors == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, a := range s.auditors {
		total += a.Count()
	}
	return total
}
