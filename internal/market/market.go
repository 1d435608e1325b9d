// Package market is the multi-task marketplace harness: it runs M
// concurrent HIT contracts on a shared chain, the deployment model of the
// paper's §VI evaluation (a requester key pair serves "all her tasks", and a
// real chain hosts many instances at once). Each chain is a shard — a
// ledger, a simulated chain with one pluggable network adversary, and an
// off-chain store; on top of the shards it runs a task registry of
// independent HIT instances — each with its own requester client and its
// own contract — over a shared worker population whose members may enroll
// in several tasks.
//
// Every clock round the harness steps all requesters, resolves the enrolled
// workers' answers sequentially (answer models may share a seeded rng),
// fans the heavy per-worker crypto of ALL tasks out over one work pool
// (internal/parallel), submits the resulting transactions in a fixed
// (task, worker) order, and mines one round per shard that interleaves its
// tasks' transactions under that shard's scheduler. Contract storage and
// event logs are namespaced per contract, and each observer polls its own
// event cursor, so tasks cannot observe — or pay for — each other's traffic.
//
// One run body and one round step (StepRound) serve every shard count: the
// one shared chain is the one-shard case, and a run over S > 1 shards adds
// only the cross-shard HTLC settlement (shard_run.go). A single-task
// simulation (package sim) is in turn the M=1 case: with an honest FIFO
// scheduler, a seeded marketplace run yields per-task payments, gas and
// harvested answers identical to running each task alone on its own chain
// (the differential test in market_test.go).
package market

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"dragoon/internal/batch"
	"dragoon/internal/chain"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/opts"
	"dragoon/internal/parallel"
	"dragoon/internal/protocol"
	"dragoon/internal/task"
	"dragoon/internal/worker"
)

// seedStride separates the derived per-task randomness streams of tasks
// that do not pin an explicit TaskSpec.Seed.
const seedStride = 0x9E3779B9

// WorkerAddr is the chain address of population member i with the given
// model name — the single definition of the harness's address naming, so
// schedulers and harnesses targeting specific workers (package adversary)
// derive addresses from the same scheme the run uses.
func WorkerAddr(i int, name string) chain.Address {
	return chain.Address(fmt.Sprintf("worker-%d-%s", i, name))
}

// TaskSpec describes one HIT instance inside a marketplace run.
type TaskSpec struct {
	// Instance is the task with its secrets. Its Task.ID names the on-chain
	// contract and must be unique within the marketplace.
	Instance *task.Instance
	// Enroll lists the population indices of the workers taking this task,
	// in arrival order; duplicates are rejected. Empty (nil or zero-length)
	// enrolls the whole population in order. A population member may enroll
	// in any number of tasks; it keeps one chain address across all of them
	// but draws per-task randomness.
	Enroll []int
	// Policy is the requester's behaviour (honest if zero).
	Policy protocol.RequesterPolicy
	// Requester is the requester's chain address (defaults to
	// "requester-<index>"). Distinct tasks may share one address.
	Requester chain.Address
	// Key optionally pins this task's requester key pair, overriding
	// Config.SharedKey; with both nil a fresh pair is derived from the
	// task's randomness stream.
	Key *elgamal.PrivateKey
	// Seed pins this task's randomness stream. 0 derives one from
	// Config.Seed and the task index (see Config.TaskSeed).
	Seed int64
	// CommitRounds bounds the commit phase (default 8).
	CommitRounds int
}

// Config configures a marketplace run.
type Config struct {
	// Tasks are the HIT instances to run concurrently.
	Tasks []TaskSpec
	// Group selects the crypto backend for every task.
	Group group.Group
	// Population is the shared worker pool tasks enroll from.
	Population []worker.Model
	// Scheduler is the network adversary of every shard (honest FIFO if
	// nil). It sees every task's transactions on its shard interleaved.
	Scheduler chain.Scheduler
	// SharedKey optionally makes every requester share one ElGamal key pair
	// — the paper's §VI key-reuse deployment ("the requester manages only
	// one private-public key pair throughout all her tasks").
	SharedKey *elgamal.PrivateKey
	// Seed makes the whole marketplace reproducible; per-task streams are
	// derived from it unless a TaskSpec pins its own Seed.
	Seed int64
	// WorkerBalance funds each population member's ledger account once
	// (workers need no balance for the protocol itself).
	WorkerBalance ledger.Amount
	// MaxRounds bounds the run (default 40).
	MaxRounds int
	// Shards splits the marketplace across max(1, Shards) independent
	// chains, each mining its own rounds (over internal/parallel,
	// deterministic join order) with tasks assigned by Placement and every
	// population member homed on shard (index mod Shards). 0 and 1 both mean
	// one shared chain. With more than one shard, cross-shard payouts settle
	// through the HTLC escrow (internal/htlc): a worker paid on a foreign
	// task shard locks its reward there and claims it on its home shard via
	// a bridge counter-lock, with a refund path on every timeout.
	Shards int
	// Placement selects the task→shard policy when Shards > 1.
	Placement Placement
	// ShardSchedulers optionally builds one network adversary per shard
	// (shard index → scheduler), at every shard count; it overrides
	// Scheduler. When nil every shard shares the Scheduler value — fine for
	// the stateless schedulers, but stateful ones (e.g. RandomScheduler)
	// must come through this hook once Shards > 1 so each concurrently mined
	// shard owns its own instance.
	ShardSchedulers func(shard int) chain.Scheduler
	// Settle tunes (and fault-injects) the cross-shard HTLC settlement
	// epoch; the zero value is the honest default.
	Settle SettleConfig
	// Options consolidates the run's execution knobs — Parallelism,
	// BatchVerify, ParallelExec — shared by every run mode (sim, market,
	// adversary, service). The embedded fields promote, so cfg.Parallelism
	// etc. read as before; see package opts for the tri-state semantics.
	// Whatever the settings, receipts, events, gas and payments are
	// byte-identical for a fixed Seed.
	opts.Options
}

// TaskSeed returns the effective randomness seed of task i: the spec's own
// Seed if pinned, otherwise a stream derived from Config.Seed and i.
func (c *Config) TaskSeed(i int) int64 {
	if c.Tasks[i].Seed != 0 {
		return c.Tasks[i].Seed
	}
	return DerivedTaskSeed(c.Seed, i)
}

// DerivedTaskSeed returns the randomness seed of the i-th task derived from
// a base seed — what TaskSeed applies when a spec does not pin one. Exported
// so the streaming service (internal/service) derives, for the i-th ADMITTED
// task, exactly the stream a batch run derives for the i-th configured task:
// identical admission order means identical transcripts.
func DerivedTaskSeed(base int64, i int) int64 {
	return base + int64(i)*seedStride
}

// WorkerOutcome reports one worker's fate in one task.
type WorkerOutcome struct {
	Name     string
	Addr     chain.Address
	Answers  []int64 // plaintext answers (nil if never produced)
	Quality  int     // true quality (-1 if no answers)
	Revealed bool
	Paid     bool
	Rejected bool
}

// TaskResult reports one task's end state within a marketplace run.
type TaskResult struct {
	// ID is the task (and contract) identifier.
	ID string
	// Requester is the task's requester address.
	Requester chain.Address
	// Outcomes reports the enrolled workers, in enrollment order.
	Outcomes []WorkerOutcome
	// GasByMethod aggregates this contract's gas per method.
	GasByMethod map[string]uint64
	// GasTotal is this task's whole on-chain handling cost.
	GasTotal uint64
	// Rounds is the clock round at which the task ended (or the run's last
	// round if it never did).
	Rounds int
	// Finalized / Cancelled report how the task ended.
	Finalized bool
	Cancelled bool
	// RequesterBalance is the requester's final ledger balance.
	RequesterBalance ledger.Amount
	// HarvestedAnswers is what the requester decrypted per worker address.
	HarvestedAnswers map[chain.Address][]int64
}

// Result reports a full marketplace run.
type Result struct {
	// Tasks holds per-task results in Config.Tasks order.
	Tasks []TaskResult
	// Rounds is the number of clock rounds the whole marketplace took.
	Rounds int
	// GasTotal is the cumulative handling cost across all tasks.
	GasTotal uint64
	// AuditedProofs counts the VPKE openings the round auditor re-verified
	// in cross-task folds (0 unless batch verification was enabled).
	AuditedProofs int
	// Ledger and Chain expose shard 0's final state for deeper assertions —
	// the whole world of a one-shard run; Shards holds the full set.
	Ledger *ledger.Ledger
	Chain  *chain.Chain
	// The shard state, present at every shard count: the shard handles, the
	// task→shard assignment (Config.Tasks order), each population member's
	// home shard, the per-shard minted supply, the HTLC bridge account with
	// its per-shard liquidity (0 on one shard), and the cross-shard
	// settlement outcomes (none on one shard).
	Shards          []*chain.Shard
	TaskShards      []int
	HomeShards      []int
	MintedByShard   []ledger.Amount
	Bridge          chain.Address
	BridgeLiquidity ledger.Amount
	Settlements     []Settlement
}

// Run executes every task of the marketplace to completion.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the context is checked between
// rounds and threaded into the per-round worker fan-out, so a cancelled run
// returns promptly with ctx.Err() instead of mining to MaxRounds.
//
// Every run mines max(1, Shards) shards through this one body and one round
// step (StepRound); a single chain is the one-shard case. Only a run over
// S > 1 shards deploys the HTLC escrow, funds the bridge and follows the
// task epoch with the cross-shard settlement epoch (shard_run.go).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Tasks) == 0 {
		return nil, errors.New("market: no tasks")
	}
	if cfg.Group == nil {
		return nil, errors.New("market: no group backend")
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 40
	}
	shards := max(1, cfg.Shards)
	mk := cfg.ShardSchedulers
	if mk == nil {
		mk = func(int) chain.Scheduler { return cfg.Scheduler }
	}
	set, err := chain.NewShardSet(shards, mk)
	if err != nil {
		return nil, fmt.Errorf("market: %w", err)
	}
	set.SetMiners(cfg.Parallelism)
	execWorkers := chain.ResolveExecWorkers(cfg.ParallelExec, cfg.Parallelism)
	for _, sh := range set.Shards() {
		sh.Chain.SetParallelExecution(execWorkers)
	}

	taskShards := PlaceTasks(&cfg, shards)
	minted := make([]ledger.Amount, shards)

	// Every population member funds (and is homed) on shard index mod S.
	popAddrs := make([]chain.Address, len(cfg.Population))
	homeShards := make([]int, len(cfg.Population))
	for i, m := range cfg.Population {
		popAddrs[i] = WorkerAddr(i, m.Name)
		homeShards[i] = HomeShard(i, shards)
		if cfg.WorkerBalance > 0 {
			set.Shard(homeShards[i]).Ledger.Mint(ledger.AccountID(popAddrs[i]), cfg.WorkerBalance)
			minted[homeShards[i]] += cfg.WorkerBalance
		}
	}
	var liquidity ledger.Amount
	if shards > 1 {
		if liquidity, err = openBridge(set, cfg.Tasks, minted); err != nil {
			return nil, err
		}
	}

	// Build each task's runtime against its own shard's chain and store.
	tasks := make([]*Runtime, len(cfg.Tasks))
	seen := make(map[ledger.ContractID]int, len(cfg.Tasks))
	for ti, spec := range cfg.Tasks {
		sh := set.Shard(taskShards[ti])
		t, err := NewRuntime(RuntimeConfig{
			Spec:        spec,
			Index:       ti,
			Seed:        cfg.TaskSeed(ti),
			Group:       cfg.Group,
			Backend:     sh.Chain,
			Store:       sh.Store,
			Population:  cfg.Population,
			PopAddrs:    popAddrs,
			SharedKey:   cfg.SharedKey,
			BatchVerify: cfg.BatchVerify,
		})
		if err != nil {
			return nil, err
		}
		// Contract IDs stay globally unique: cross-shard lock IDs embed the
		// task ID.
		if prev, dup := seen[t.id]; dup {
			return nil, fmt.Errorf("market: tasks %d and %d share contract ID %q", prev, ti, t.id)
		}
		seen[t.id] = ti
		t.Fund(sh.Ledger)
		minted[taskShards[ti]] += 2 * spec.Instance.Task.Budget
		tasks[ti] = t
	}

	for _, t := range tasks {
		if err := t.Launch(); err != nil {
			return nil, err
		}
	}

	// With batching on, one read-only auditor per shard folds every
	// rejection proof the contracts accept in a mined round into one batch
	// verification (see audit.go); it cannot change the run's transcript.
	// Folds never cross a shard boundary (receipts of different chains have
	// independent rounds).
	auditors := make([]*Auditor, shards)
	if batch.Resolve(cfg.BatchVerify) {
		for ti, t := range tasks {
			s := taskShards[ti]
			if auditors[s] == nil {
				auditors[s] = NewAuditor(cfg.Group)
			}
			auditors[s].Register(t.id, t.RequesterKey().H)
		}
	}

	// The task epoch: all live tasks advance in lockstep, every shard mining
	// one round per iteration; a shard whose tasks have all settled keeps
	// mining empty rounds so the clocks agree.
	for round := 0; round < cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("market: round %d: %w", round, err)
		}
		live := false
		for _, t := range tasks {
			live = live || !t.finished
		}
		if !live {
			break
		}
		if err := StepRound(ctx, set, tasks, taskShards, cfg.Parallelism, auditors); err != nil {
			return nil, err
		}
	}
	taskEpochEnd, err := set.Round()
	if err != nil {
		return nil, fmt.Errorf("market: %w", err)
	}
	for _, t := range tasks {
		if !t.finished {
			t.finalRound = taskEpochEnd
		}
	}
	var settlements []Settlement
	if shards > 1 {
		settlements, err = settleAcrossShards(ctx, &cfg, set, tasks, taskShards, popAddrs, homeShards, taskEpochEnd)
		if err != nil {
			return nil, err
		}
	}

	rounds, err := set.Round()
	if err != nil {
		return nil, fmt.Errorf("market: %w", err)
	}
	res := &Result{
		Tasks:           make([]TaskResult, len(tasks)),
		Rounds:          rounds,
		Ledger:          set.Shard(0).Ledger,
		Chain:           set.Shard(0).Chain,
		Shards:          set.Shards(),
		TaskShards:      taskShards,
		HomeShards:      homeShards,
		MintedByShard:   minted,
		Bridge:          BridgeAddr,
		BridgeLiquidity: liquidity,
		Settlements:     settlements,
	}
	for _, a := range auditors {
		if a != nil {
			res.AuditedProofs += a.Count()
		}
	}
	for ti, t := range tasks {
		sh := set.Shard(taskShards[ti])
		tr, err := t.Result(sh.Chain, sh.Ledger)
		if err != nil {
			return nil, err
		}
		res.GasTotal += tr.GasTotal
		res.Tasks[ti] = tr
	}
	if err := set.CheckConservation(); err != nil {
		return nil, fmt.Errorf("market: %w", err)
	}
	return res, nil
}

// StepRound advances the live tasks of a shard set through one mined round:
// requesters step in task order, the enrolled workers' answers resolve
// sequentially in (task, worker) order (answer models may share one seeded
// rng), the heavy per-worker crypto of ALL tasks on every shard fans out
// over one work pool, the resulting transactions enter each shard's mempool
// in (task, worker) order, every shard mines its round (concurrently, with
// a deterministic join), the optional per-shard auditors re-verify the
// round's accepted rejection proofs, and each task folds the round's events
// into its phase observer. Shards share nothing, so each shard's transcript
// equals the sequential transcript of its own tasks.
//
// taskShards[i] is tasks[i]'s shard; finished tasks are skipped. auditors
// is indexed by shard and may be nil (or hold nils) when auditing is off.
// Exported so the streaming service (internal/service) drives exactly the
// code path of a batch Run — a task settles identically whichever harness
// hosts it.
func StepRound(ctx context.Context, set *chain.ShardSet, tasks []*Runtime, taskShards []int, parallelism int, auditors []*Auditor) error {
	round, err := set.Round()
	if err != nil {
		return fmt.Errorf("market: %w", err)
	}
	type slot struct {
		t     *Runtime
		shard int
		i     int
	}
	var active []slot // one entry per live task, i unused
	for ti, t := range tasks {
		if !t.finished {
			active = append(active, slot{t: t, shard: taskShards[ti]})
		}
	}
	for _, s := range active {
		if err := s.t.StepRequester(); err != nil {
			return fmt.Errorf("market: task %q requester step (round %d): %w", s.t.id, round, err)
		}
	}
	var slots []slot
	for _, s := range active {
		for i := range s.t.clients {
			if err := s.t.Prepare(i); err != nil {
				return fmt.Errorf("market: task %q worker %d prepare (round %d): %w", s.t.id, i, round, err)
			}
			slots = append(slots, slot{t: s.t, shard: s.shard, i: i})
		}
	}
	// Each worker reads only mined chain state through its own event cursor
	// and draws from its own randomness stream, so the fan-out cannot change
	// what it submits.
	txsPerSlot, err := parallel.Map(ctx, len(slots), parallelism,
		func(k int) ([]*chain.Tx, error) {
			s := slots[k]
			txs, err := s.t.WorkerTxs(s.i)
			if err != nil {
				return nil, fmt.Errorf("market: task %q worker %d step (round %d): %w", s.t.id, s.i, round, err)
			}
			return txs, nil
		})
	if err != nil {
		return err
	}
	for k, txs := range txsPerSlot {
		for _, tx := range txs {
			if err := set.Shard(slots[k].shard).Chain.Submit(tx); err != nil {
				return fmt.Errorf("market: round %d: %w", round, err)
			}
		}
	}
	receipts, err := set.MineAll(ctx)
	if err != nil {
		return fmt.Errorf("market: mining round %d: %w", round, err)
	}
	for si, a := range auditors {
		if a == nil {
			continue
		}
		if err := a.Audit(set.Shard(si).Chain.Round(), receipts[si]); err != nil {
			return err
		}
	}
	for _, s := range active {
		if err := s.t.CheckPhase(set.Shard(s.shard).Chain.Round()); err != nil {
			return err
		}
	}
	return nil
}

// outcomesFromEvents extracts per-worker verdicts from one contract's event
// log.
func outcomesFromEvents(ch *chain.Chain, id ledger.ContractID) (paid, rejected, revealed map[chain.Address]bool) {
	paid = make(map[chain.Address]bool)
	rejected = make(map[chain.Address]bool)
	revealed = make(map[chain.Address]bool)
	for _, ev := range ch.EventsFor(id) {
		switch ev.Name {
		case "paid":
			paid[chain.Address(ev.Data)] = true
		case "rejected":
			if i := bytes.IndexByte(ev.Data, 0); i > 0 {
				rejected[chain.Address(ev.Data[:i])] = true
			}
		case "revealed":
			if i := bytes.IndexByte(ev.Data, 0); i > 0 {
				revealed[chain.Address(ev.Data[:i])] = true
			}
		}
	}
	return paid, rejected, revealed
}
