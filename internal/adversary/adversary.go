// Package adversary is the adversarial scenario engine: a library of
// byzantine protocol executions — cheating workers, malicious requesters,
// hostile network schedulers, and combinations of all three — that run
// through the real end-to-end harnesses (package sim for a single task,
// package market for many tasks on one or more shards, package service for
// a stream) and are checked against the protocol's security invariants:
//
//   - fund conservation: no run creates or destroys coins, on any shard;
//   - escrow drainage: every settled contract's escrow is exactly empty;
//   - honest payment: the paper's core guarantee — an honest worker on a
//     finalized task is always paid, and never loses funds on a cancelled
//     one, no matter what anyone else does;
//   - phase monotonicity: each contract's event log tells a well-formed
//     story (publish → commit → reveal window → evaluation → settlement)
//     with every event inside its protocol window.
//
// Matrix returns the standard scenario catalogue; tests sweep it through
// both harnesses at several parallelism levels, and the facade re-exports
// the engine so it doubles as a reusable adversarial workload generator.
package adversary

import (
	"errors"
	"fmt"
	"math/rand"

	"dragoon/internal/chain"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/market"
	"dragoon/internal/opts"
	"dragoon/internal/protocol"
	"dragoon/internal/sim"
	"dragoon/internal/task"
	"dragoon/internal/worker"
)

// Scenario is one adversarial protocol execution: a worker lineup (with a
// known honest subset), a requester policy, a network scheduler, and the
// outcome the protocol's security argument predicts.
type Scenario struct {
	// Name identifies the scenario ("garbled-reveal", "censor-requester").
	Name string
	// Description says what is being attacked and why the protocol wins.
	Description string
	// Quota is the contract's worker quota K. The lineup may be larger
	// (extra workers race for slots) or exactly K.
	Quota int
	// Lineup builds the worker models for one task instance. rng is a
	// scenario-seeded source for models that need randomness.
	Lineup func(inst *task.Instance, rng *rand.Rand) []worker.Model
	// Honest lists lineup indices of honest ground-truth workers — the
	// ones whose payment the invariant checker enforces.
	Honest []int
	// Policy is the requester's behaviour (honest if zero).
	Policy protocol.RequesterPolicy
	// NewScheduler builds the network adversary for the run (honest FIFO
	// if nil). workers holds the enrolled workers' chain addresses in
	// lineup order; requesters the requester address(es).
	NewScheduler func(seed int64, workers, requesters []chain.Address) chain.Scheduler
	// ExpectCancel declares that, under this scenario's own scheduler, the
	// task must end cancelled (deposit refunded) rather than finalized.
	ExpectCancel bool
	// MaxRounds overrides the harness round bound (0 → default).
	MaxRounds int
	// Budget overrides the generated tasks' reward pool B (0 → the
	// catalogue default). The stingy economic scenarios post rewards below
	// the dominant-reward bound this way.
	Budget ledger.Amount
	// Econ declares the scenario's economic structure — which lineup
	// indices are rational, colluding, or sybil identities — so
	// CheckInvariants can enforce the incentive-layer invariants on top of
	// the fund-safety ones. Nil for purely byzantine scenarios.
	Econ *EconSpec
	// Settle optionally fault-injects the cross-shard HTLC settlement epoch
	// of a sharded run (see market.SettleConfig). workers holds the enrolled
	// workers' chain addresses in lineup order. Only consulted when the run
	// is sharded (Options.Shards > 1); nil keeps the honest default.
	Settle func(workers []chain.Address) market.SettleConfig
	// ExpectRefund declares that, under this scenario's settlement faults,
	// every cross-shard transfer must unwind through the refund path rather
	// than claim. CheckInvariants checks it against the report's
	// settlements (none on one shard).
	ExpectRefund bool
}

// Options configures a scenario run.
type Options struct {
	// Group is the crypto backend (required).
	Group group.Group
	// Seed makes the run reproducible and derives every model rng.
	Seed int64
	// WorkerBalance pre-funds each population member's account.
	WorkerBalance ledger.Amount
	// N overrides the generated tasks' question count (0 → 16).
	N int
	// Shards splits the marketplace run across max(1, Shards) chains (0 and
	// 1 both mean one chain); see market.Config.Shards. Cross-shard payouts
	// settle through the HTLC escrow, and CheckInvariants checks fund
	// conservation across every shard and the lock/claim/refund story.
	Shards int
	// Placement selects the task→shard policy.
	Placement market.Placement
	// Options consolidates the run's execution knobs — Parallelism,
	// BatchVerify, ParallelExec. The embedded fields promote, so
	// o.Parallelism etc. read as before; see package opts for the tri-state
	// semantics. Scenario outcomes are byte-identical at every setting —
	// the fingerprint sweeps in the tests prove it.
	opts.Options
}

// Task-shape defaults: a dusty budget (997 % quota != 0 for every quota
// used by the matrix) so conservation checks cover the remainder path, and
// enough golden standards that honest and golden-wrong workers separate.
const (
	defaultN      = 16
	defaultBudget = 997
	numGolden     = 5
	threshold     = 4
	rangeSize     = 3
)

// instance generates the idx-th task instance of a scenario run.
func (s Scenario) instance(opts Options, idx int) (*task.Instance, error) {
	rng := rand.New(rand.NewSource(opts.Seed ^ int64(idx+1)*0x5DEECE66D))
	n := opts.N
	if n == 0 {
		n = defaultN
	}
	budget := s.Budget
	if budget == 0 {
		budget = defaultBudget
	}
	id := fmt.Sprintf("%s-%d", s.Name, idx)
	return task.Generate(task.GenerateParams{
		ID:        id,
		N:         n,
		RangeSize: rangeSize,
		NumGolden: numGolden,
		Workers:   s.Quota,
		Threshold: threshold,
		Budget:    budget,
		// Task-unique question content, so distinct tasks sharing one
		// off-chain store have distinct content digests (the default
		// generator content depends only on the task shape — co-resident
		// tasks would alias each other's storage, and a withholding
		// requester could free-ride on a sibling task's upload).
		QuestionFn: func(i int) task.Question {
			opts := make([]string, rangeSize)
			for j := range opts {
				opts[j] = fmt.Sprintf("option-%d", j)
			}
			return task.Question{
				Text:    fmt.Sprintf("%s: question #%d", id, i),
				Options: opts,
			}
		},
	}, rng)
}

// lineupRng derives the rng handed to a scenario's Lineup builder.
func lineupRng(opts Options, idx int) *rand.Rand {
	return rand.New(rand.NewSource(opts.Seed*31 + int64(idx)*1009 + 7))
}

// TaskReport is one task's end state plus the scenario metadata the
// invariant checker needs.
type TaskReport struct {
	ID               string
	Requester        chain.Address
	RequesterBalance ledger.Amount
	Finalized        bool
	Cancelled        bool
	Outcomes         []market.WorkerOutcome
	Budget           ledger.Amount
	Quota            int
	Honest           []int
	ExpectCancel     bool
	// Policy is the requester behaviour the task ran under; the economic
	// checks only bind under an honest audit (a pay-all policy legitimately
	// pays bad answer streams).
	Policy protocol.RequesterPolicy
	// Econ carries the scenario's economic structure (nil if none).
	Econ *EconSpec
	// NumGolden, Threshold and RangeSize are the task's audit shape — what
	// the incentive model needs to reprice the posted terms.
	NumGolden int
	Threshold int
	RangeSize int64
	// Shard is the index of the chain the task ran on in Report.Shards.
	Shard int
}

// taskReport seeds one task's report with the scenario metadata every
// harness path shares; the caller fills the end-state fields.
func (s Scenario) taskReport(inst *task.Instance, reqAddr chain.Address) TaskReport {
	return TaskReport{
		ID:           inst.Task.ID,
		Requester:    reqAddr,
		Budget:       inst.Task.Budget,
		Quota:        s.Quota,
		Honest:       s.Honest,
		ExpectCancel: s.ExpectCancel,
		Policy:       s.Policy,
		Econ:         s.Econ,
		NumGolden:    len(inst.Golden.Indices),
		Threshold:    inst.Task.Threshold,
		RangeSize:    inst.Task.RangeSize,
	}
}

// Report is a completed scenario run, ready for invariant checking.
type Report struct {
	// Name labels the run ("garbled-reveal/sim", "matrix").
	Name string
	// Ledger and Chain are shard 0's final state — the whole world of a
	// one-shard run.
	Ledger *ledger.Ledger
	Chain  *chain.Chain
	// WorkerBalance is what each population member was pre-funded with.
	WorkerBalance ledger.Amount
	// Minted is the coin supply the harness itself created: every task's
	// 2B deposit plus every population member's pre-funding. The bridge's
	// liquidity comes on top, on every shard.
	Minted ledger.Amount
	// Tasks holds per-task reports.
	Tasks []TaskReport
	// Shards holds every chain of the run, in index order — one for the sim
	// and stream harnesses and for unsharded market runs.
	Shards []*chain.Shard
	// Bridge is the HTLC bridge account and BridgeLiquidity what it was
	// minted on every shard (0 on one shard); Settlements are the
	// cross-shard transfers, and ExpectRefund says whether the scenario
	// predicts refunds instead of claims.
	Bridge          chain.Address
	BridgeLiquidity ledger.Amount
	Settlements     []market.Settlement
	ExpectRefund    bool
}

// workerAddrs maps a population to its chain addresses (the harnesses'
// naming scheme), so schedulers can target specific workers.
func workerAddrs(models []worker.Model) []chain.Address {
	addrs := make([]chain.Address, len(models))
	for i, m := range models {
		addrs[i] = market.WorkerAddr(i, m.Name)
	}
	return addrs
}

// RunSim executes the scenario as a single task through the sim harness —
// the M=1 protocol execution the paper's Fig. 5 describes.
func (s Scenario) RunSim(opts Options) (*Report, error) {
	if opts.Group == nil {
		return nil, errors.New("adversary: no group backend")
	}
	inst, err := s.instance(opts, 0)
	if err != nil {
		return nil, fmt.Errorf("adversary: %s: %w", s.Name, err)
	}
	models := s.Lineup(inst, lineupRng(opts, 0))
	var sched chain.Scheduler
	if s.NewScheduler != nil {
		sched = s.NewScheduler(opts.Seed, workerAddrs(models), []chain.Address{sim.RequesterAddr})
	}
	res, err := sim.Run(sim.Config{
		Instance:      inst,
		Group:         opts.Group,
		Workers:       models,
		Scheduler:     sched,
		Policy:        s.Policy,
		Seed:          opts.Seed,
		WorkerBalance: opts.WorkerBalance,
		MaxRounds:     s.MaxRounds,
		Options:       opts.Options,
	})
	if err != nil {
		return nil, fmt.Errorf("adversary: %s/sim: %w", s.Name, err)
	}
	tr := s.taskReport(inst, sim.RequesterAddr)
	tr.RequesterBalance = res.RequesterBalance
	tr.Finalized = res.Finalized
	tr.Cancelled = res.Cancelled
	tr.Outcomes = res.Outcomes
	return &Report{
		Name:          s.Name + "/sim",
		Ledger:        res.Ledger,
		Chain:         res.Chain,
		WorkerBalance: opts.WorkerBalance,
		Minted:        inst.Task.Budget*2 + ledger.Amount(len(models))*opts.WorkerBalance,
		Tasks:         []TaskReport{tr},
		Shards:        []*chain.Shard{{Ledger: res.Ledger, Chain: res.Chain}},
	}, nil
}

// colocation lays scenario instances out as the tasks of one marketplace:
// task i is instance i of scenarios[i], enrolling its own lineup as the next
// slice of one shared population under its own requester-<i> address.
type colocation struct {
	specs      []market.TaskSpec
	reports    []TaskReport
	population []worker.Model
	requesters []chain.Address
	minted     ledger.Amount
	maxRounds  int
}

// colocate builds the co-location of scenarios. Every harness that puts
// several tasks on one marketplace — batch or stream, one scenario
// repeated or a matrix — shares this layout, so their reports compare
// byte-for-byte.
func colocate(scenarios []Scenario, opts Options) (*colocation, error) {
	if opts.Group == nil {
		return nil, errors.New("adversary: no group backend")
	}
	c := &colocation{
		specs:     make([]market.TaskSpec, len(scenarios)),
		reports:   make([]TaskReport, len(scenarios)),
		maxRounds: maxRoundsOf(scenarios),
	}
	for i := range scenarios {
		s := &scenarios[i]
		inst, err := s.instance(opts, i)
		if err != nil {
			return nil, fmt.Errorf("adversary: %s: %w", s.Name, err)
		}
		models := s.Lineup(inst, lineupRng(opts, i))
		// Pin the requester address explicitly (rather than relying on the
		// harness default) so schedulers targeting requesters and the
		// reports share one source of truth.
		reqAddr := chain.Address(fmt.Sprintf("requester-%d", i))
		c.specs[i] = market.TaskSpec{
			Instance:  inst,
			Enroll:    indicesFrom(len(c.population), len(models)),
			Policy:    s.Policy,
			Requester: reqAddr,
		}
		c.population = append(c.population, models...)
		c.requesters = append(c.requesters, reqAddr)
		c.reports[i] = s.taskReport(inst, reqAddr)
		c.minted += inst.Task.Budget * 2
	}
	c.minted += ledger.Amount(len(c.population)) * opts.WorkerBalance
	return c, nil
}

// copies returns m copies of the scenario (at least one) — the task list of
// RunMarket and RunStream.
func (s Scenario) copies(m int) []Scenario {
	out := make([]Scenario, max(1, m))
	for i := range out {
		out[i] = s
	}
	return out
}

// participants guards the matrix harnesses: a chain has exactly one network
// adversary, so scenarios pinning their own scheduler run alone.
func participants(scenarios []Scenario) error {
	if len(scenarios) == 0 {
		return errors.New("adversary: empty matrix")
	}
	for i := range scenarios {
		if scenarios[i].NewScheduler != nil {
			return fmt.Errorf("adversary: scenario %q pins its own scheduler; run it alone", scenarios[i].Name)
		}
	}
	return nil
}

// fill copies one task's end state from its harness result.
func (t *TaskReport) fill(res *market.TaskResult) {
	t.RequesterBalance = res.RequesterBalance
	t.Finalized = res.Finalized
	t.Cancelled = res.Cancelled
	t.Outcomes = res.Outcomes
}

// runMarket runs the co-location as one marketplace under cfg, which
// carries the scenario-specific scheduler and settlement faults.
func (c *colocation) runMarket(name string, cfg market.Config, opts Options, expectRefund bool) (*Report, error) {
	cfg.Tasks = c.specs
	cfg.Group = opts.Group
	cfg.Population = c.population
	cfg.Seed = opts.Seed
	cfg.WorkerBalance = opts.WorkerBalance
	cfg.MaxRounds = c.maxRounds
	cfg.Shards = opts.Shards
	cfg.Placement = opts.Placement
	cfg.Options = opts.Options
	res, err := market.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("adversary: %s: %w", name, err)
	}
	for i := range c.reports {
		c.reports[i].fill(&res.Tasks[i])
		c.reports[i].Shard = res.TaskShards[i]
	}
	return &Report{
		Name:            name,
		Ledger:          res.Ledger,
		Chain:           res.Chain,
		WorkerBalance:   opts.WorkerBalance,
		Minted:          c.minted,
		Tasks:           c.reports,
		Shards:          res.Shards,
		Bridge:          res.Bridge,
		BridgeLiquidity: res.BridgeLiquidity,
		Settlements:     res.Settlements,
		ExpectRefund:    expectRefund,
	}, nil
}

// RunMarket executes m independent instances of the scenario concurrently
// on one marketplace (split across Options.Shards chains), each with its
// own requester and its own slice of the worker population, all scheduled
// by the scenario's network adversary — one instance per shard.
func (s Scenario) RunMarket(m int, opts Options) (*Report, error) {
	c, err := colocate(s.copies(m), opts)
	if err != nil {
		return nil, err
	}
	var cfg market.Config
	popAddrs := workerAddrs(c.population)
	if s.NewScheduler != nil {
		// One scheduler instance per shard (same construction arguments),
		// so stateful schedulers never share mutable state across the
		// concurrently mined shards.
		cfg.ShardSchedulers = func(int) chain.Scheduler {
			return s.NewScheduler(opts.Seed, popAddrs, c.requesters)
		}
	}
	if s.Settle != nil {
		cfg.Settle = s.Settle(popAddrs)
	}
	return c.runMarket(fmt.Sprintf("%s/market-%d", s.Name, len(c.specs)), cfg, opts, s.ExpectRefund)
}

// RunMatrix co-locates MANY scenarios as concurrent tasks of one
// marketplace (split across Options.Shards chains) — the full
// participant-level adversarial matrix attacking side by side. Scenarios
// with their own scheduler are rejected: a chain has exactly one network
// adversary, so scheduler scenarios run through RunSim/RunMarket instead.
func RunMatrix(scenarios []Scenario, opts Options) (*Report, error) {
	if err := participants(scenarios); err != nil {
		return nil, err
	}
	c, err := colocate(scenarios, opts)
	if err != nil {
		return nil, err
	}
	return c.runMarket("matrix", market.Config{}, opts, false)
}

// maxRoundsOf returns the largest per-scenario round bound (0 if none pin
// one, letting the harness default apply).
func maxRoundsOf(scenarios []Scenario) int {
	max := 0
	for i := range scenarios {
		if scenarios[i].MaxRounds > max {
			max = scenarios[i].MaxRounds
		}
	}
	return max
}
