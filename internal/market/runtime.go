package market

// Runtime is the per-task driving state of the marketplace: one requester
// client, whose view of the contract's event log also tells the harness
// when the task settled, and the enrolled worker clients. It is extracted
// from the batch Run loop so the streaming service (internal/service)
// drives exactly the same code path — task by task, round by round — that a
// batch Run does: a task admitted to a long-lived chain produces
// byte-for-byte the transcript it would produce in a fixed-duration Run
// with the same seed and neighbours.

import (
	"fmt"

	"dragoon/internal/chain"
	"dragoon/internal/contract"
	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/poqoea"
	"dragoon/internal/protocol"
	"dragoon/internal/swarm"
	"dragoon/internal/task"
	"dragoon/internal/worker"
)

// RuntimeConfig wires one task runtime onto a shared substrate.
type RuntimeConfig struct {
	// Spec describes the task.
	Spec TaskSpec
	// Index is the task's position in its run, naming the default requester
	// address ("requester-<Index>").
	Index int
	// Seed is the task's randomness stream seed (see Config.TaskSeed).
	Seed int64
	// Group selects the crypto backend.
	Group group.Group
	// Backend is the chain surface the clients drive — the live shared
	// *chain.Chain, or a replay backend when a service restores mid-stream.
	Backend chain.Backend
	// Store is the shared off-chain content store.
	Store *swarm.Store
	// Population and PopAddrs are the shared worker pool the spec enrolls
	// from, with the chain address of each member (see WorkerAddr).
	Population []worker.Model
	PopAddrs   []chain.Address
	// SharedKey optionally shares one requester key pair across tasks.
	SharedKey *elgamal.PrivateKey
	// BatchVerify selects batch verification when > 0 (see batch.Resolve).
	BatchVerify int
	// Answers optionally pre-resolves the enrolled workers' plaintext answer
	// vectors, indexed by enrollment position (restore path: a snapshot
	// records the answers each model already produced, so replaying never
	// re-consumes a model's — possibly shared — rng).
	Answers [][]int64
}

// Runtime drives one HIT task on a shared chain.
type Runtime struct {
	spec    TaskSpec
	id      ledger.ContractID
	reqAddr chain.Address
	req     *protocol.Requester
	clients []*protocol.Worker
	addrs   []chain.Address
	models  []worker.Model
	answers [][]int64

	finished   bool
	finalized  bool
	cancelled  bool
	finalRound int
}

// NewRuntime builds the task's requester and worker clients. It neither
// funds nor launches the task — see Fund and Launch.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	spec := cfg.Spec
	if spec.Instance == nil {
		return nil, fmt.Errorf("market: task %d has no instance", cfg.Index)
	}
	id := ledger.ContractID(spec.Instance.Task.ID)
	t := &Runtime{spec: spec, id: id, reqAddr: spec.Requester}
	if t.reqAddr == "" {
		t.reqAddr = chain.Address(fmt.Sprintf("requester-%d", cfg.Index))
	}
	key := spec.Key
	if key == nil {
		key = cfg.SharedKey
	}
	req, err := protocol.NewRequester(protocol.RequesterConfig{
		Addr:         t.reqAddr,
		Chain:        cfg.Backend,
		Store:        cfg.Store,
		Instance:     spec.Instance,
		Policy:       spec.Policy,
		Group:        cfg.Group,
		Key:          key,
		CommitRounds: spec.CommitRounds,
		Rand:         drbg.New(cfg.Seed, "requester"),
		BatchVerify:  cfg.BatchVerify,
	})
	if err != nil {
		return nil, fmt.Errorf("market: task %q: %w", id, err)
	}
	t.req = req

	enroll := spec.Enroll
	if len(enroll) == 0 {
		enroll = make([]int, len(cfg.Population))
		for i := range enroll {
			enroll[i] = i
		}
	}
	enrolled := make(map[int]bool, len(enroll))
	t.models = make([]worker.Model, len(enroll))
	t.addrs = make([]chain.Address, len(enroll))
	t.answers = make([][]int64, len(enroll))
	if cfg.Answers != nil {
		if len(cfg.Answers) != len(enroll) {
			return nil, fmt.Errorf("market: task %q: %d recorded answer vectors for %d enrollments",
				id, len(cfg.Answers), len(enroll))
		}
		copy(t.answers, cfg.Answers)
	}
	t.clients = make([]*protocol.Worker, len(enroll))
	for i, pi := range enroll {
		if pi < 0 || pi >= len(cfg.Population) {
			return nil, fmt.Errorf("market: task %q enrolls population index %d (have %d members)", id, pi, len(cfg.Population))
		}
		if enrolled[pi] {
			return nil, fmt.Errorf("market: task %q enrolls population index %d twice", id, pi)
		}
		enrolled[pi] = true
		m := cfg.Population[pi]
		t.models[i] = m
		t.addrs[i] = cfg.PopAddrs[pi]
		fn := t.record(i, m.Answers)
		var rb *protocol.RationalBehaviour
		if m.Rational != nil {
			// A rational model's two candidate streams record into the same
			// slot: whichever the worker plays is what the snapshot keeps.
			rb = &protocol.RationalBehaviour{
				Profile: m.Rational.Profile,
				Honest:  t.record(i, m.Rational.Honest),
				Guess:   t.record(i, m.Rational.Guess),
			}
		}
		// Each enrollment draws from a private per-task stream labelled
		// by its arrival position (index first, delimited, so names
		// ending in digits cannot collide with other positions), and a
		// task's transcript is invariant under whatever else its
		// workers are enrolled in.
		w, err := protocol.NewWorker(protocol.WorkerConfig{
			Addr:       t.addrs[i],
			Chain:      cfg.Backend,
			Store:      cfg.Store,
			Group:      cfg.Group,
			ContractID: id,
			Strategy:   m.Strategy,
			AnswerFn:   fn,
			Rational:   rb,
			Rand:       drbg.New(cfg.Seed, fmt.Sprintf("worker-%d-%s", i, m.Name)),
		})
		if err != nil {
			return nil, fmt.Errorf("market: task %q worker %d: %w", id, i, err)
		}
		t.clients[i] = w
	}
	return t, nil
}

// record wraps an answer stream so its first resolution is cached into the
// task's per-enrollment answer record (snapshot/restore reads it back, and a
// restored task never re-consumes a model's — possibly shared — rng).
func (t *Runtime) record(i int, produce protocol.AnswerFn) protocol.AnswerFn {
	if produce == nil {
		return nil
	}
	return func(qs []task.Question, rangeSize int64) []int64 {
		if t.answers[i] == nil {
			t.answers[i] = produce(qs, rangeSize)
		}
		return t.answers[i]
	}
}

// ID returns the task (and contract) identifier.
func (t *Runtime) ID() ledger.ContractID { return t.id }

// RequesterKey returns the requester's public encryption key (for audit
// registration).
func (t *Runtime) RequesterKey() *elgamal.PublicKey { return t.req.PublicKey() }

// Questions returns the task's question count N.
func (t *Runtime) Questions() int { return t.spec.Instance.Task.N() }

// Fund mints the requester's working balance (budget plus an equal reserve
// for gas-free escrow headroom, matching the batch harness). A restored task
// is NOT re-funded: its balance lives in the ledger snapshot.
func (t *Runtime) Fund(led *ledger.Ledger) {
	led.Mint(ledger.AccountID(t.reqAddr), t.spec.Instance.Task.Budget*2)
}

// Launch deploys the task's contract and publishes it.
func (t *Runtime) Launch() error {
	if err := t.req.Launch(); err != nil {
		return fmt.Errorf("market: launching task %q: %w", t.id, err)
	}
	return nil
}

// Workers returns the number of enrolled worker clients.
func (t *Runtime) Workers() int { return len(t.clients) }

// StepRequester advances the requester one clock round.
func (t *Runtime) StepRequester() error { return t.req.Step() }

// Prepare resolves worker i's plaintext answers if a commit is due; answer
// models may share one rng, so callers invoke Prepare sequentially in
// (task, worker) order before fanning WorkerTxs out.
func (t *Runtime) Prepare(i int) error { return t.clients[i].Prepare() }

// WorkerTxs computes worker i's round transactions without submitting them
// (safe to fan out across workers).
func (t *Runtime) WorkerTxs(i int) ([]*chain.Tx, error) { return t.clients[i].StepTxs() }

// CheckPhase folds the newly mined events into the requester's view of the
// contract and marks the task finished once its contract settled.
func (t *Runtime) CheckPhase(round int) error {
	view, err := t.req.View()
	if err != nil {
		return fmt.Errorf("market: task %q phase: %w", t.id, err)
	}
	switch view.Phase(round) {
	case contract.PhaseDone:
		t.finished, t.finalized, t.finalRound = true, true, round
	case contract.PhaseCancelled:
		t.finished, t.cancelled, t.finalRound = true, true, round
	}
	return nil
}

// Finished reports whether the task's contract settled (paid out or
// cancelled).
func (t *Runtime) Finished() bool { return t.finished }

// RecordedAnswers returns the plaintext answer vectors the enrolled workers
// resolved so far, indexed by enrollment position (nil where no answer was
// produced yet) — what a snapshot records so a restore never re-consumes a
// model's rng.
func (t *Runtime) RecordedAnswers() [][]int64 {
	out := make([][]int64, len(t.answers))
	copy(out, t.answers)
	return out
}

// Result assembles the task's end-state report from the shared chain and
// ledger. It must run before the task's contract state is pruned.
func (t *Runtime) Result(ch *chain.Chain, led *ledger.Ledger) (TaskResult, error) {
	tr := TaskResult{
		ID:               string(t.id),
		Requester:        t.reqAddr,
		GasByMethod:      ch.GasByMethodFor(t.id),
		Rounds:           t.finalRound,
		Finalized:        t.finalized,
		Cancelled:        t.cancelled,
		RequesterBalance: led.Balance(ledger.AccountID(t.reqAddr)),
		HarvestedAnswers: make(map[chain.Address][]int64),
	}
	for _, g := range tr.GasByMethod {
		tr.GasTotal += g
	}

	// Worker outcomes from the contract's own event log, folded up to the
	// last mined event, and the true answers.
	view, err := t.req.View()
	if err != nil {
		return TaskResult{}, fmt.Errorf("market: task %q outcomes: %w", t.id, err)
	}
	st := t.spec.Instance.Golden.Statement(t.spec.Instance.Task.RangeSize)
	for i, m := range t.models {
		o := WorkerOutcome{
			Name:     m.Name,
			Addr:     t.addrs[i],
			Answers:  t.answers[i],
			Quality:  -1,
			Revealed: view.Revealed[t.addrs[i]],
			Paid:     view.Paid[t.addrs[i]],
			Rejected: view.Rejected[t.addrs[i]],
		}
		if t.answers[i] != nil {
			o.Quality = poqoea.Quality(t.answers[i], st)
		}
		tr.Outcomes = append(tr.Outcomes, o)
	}

	if t.finalized {
		harvested, err := t.req.Answers()
		if err != nil {
			return TaskResult{}, fmt.Errorf("market: harvesting task %q: %w", t.id, err)
		}
		tr.HarvestedAnswers = harvested
	}
	return tr, nil
}
