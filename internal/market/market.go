// Package market is the multi-task marketplace harness: it runs M
// concurrent HIT contracts on a shared chain, the deployment model of the
// paper's §VI evaluation (a requester key pair serves "all her tasks", and a
// real chain hosts many instances at once). The chain is one chain.Shard —
// a ledger, a simulated chain with one pluggable network adversary, and an
// off-chain store; on top of it the harness runs a task registry of
// independent HIT instances — each with its own requester client and its
// own contract — over a shared worker population whose members may enroll
// in several tasks.
//
// Every clock round the harness steps all requesters, resolves the enrolled
// workers' answers sequentially (answer models may share a seeded rng),
// fans the heavy per-worker crypto of ALL tasks out over one work pool
// (internal/parallel), submits the resulting transactions in a fixed
// (task, worker) order, and mines one round that interleaves every task's
// transactions under the chain's scheduler. Contract storage and event logs
// are namespaced per contract, and each observer polls its own event
// cursor, so tasks cannot observe — or pay for — each other's traffic.
//
// One round step (StepRound) serves both the batch run and the streaming
// service (internal/service). A single-task simulation (package sim) is in
// turn the M=1 case: with an honest FIFO scheduler, a seeded marketplace run
// yields per-task payments, gas and harvested answers identical to running
// each task alone on its own chain (the differential test in
// market_test.go).
package market

import (
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
	// Scheduler is the chain's network adversary (honest FIFO if nil). It
	// sees every task's transactions interleaved.
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
	// Ledger and Chain expose the chain's final state for deeper
	// assertions.
	Ledger *ledger.Ledger
	Chain  *chain.Chain
}

// Run executes every task of the marketplace to completion.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the context is checked between
// rounds and threaded into the per-round worker fan-out, so a cancelled run
// returns promptly with ctx.Err() instead of mining to MaxRounds.
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
	sh := chain.NewShard(0, cfg.Scheduler)
	sh.Chain.SetParallelExecution(chain.ResolveExecWorkers(cfg.ParallelExec, cfg.Parallelism))

	popAddrs := make([]chain.Address, len(cfg.Population))
	for i, m := range cfg.Population {
		popAddrs[i] = WorkerAddr(i, m.Name)
		if cfg.WorkerBalance > 0 {
			sh.Ledger.Mint(ledger.AccountID(popAddrs[i]), cfg.WorkerBalance)
		}
	}

	tasks := make([]*Runtime, len(cfg.Tasks))
	seen := make(map[ledger.ContractID]int, len(cfg.Tasks))
	for ti, spec := range cfg.Tasks {
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
		if prev, dup := seen[t.id]; dup {
			return nil, fmt.Errorf("market: tasks %d and %d share contract ID %q", prev, ti, t.id)
		}
		seen[t.id] = ti
		t.Fund(sh.Ledger)
		tasks[ti] = t
	}

	for _, t := range tasks {
		if err := t.Launch(); err != nil {
			return nil, err
		}
	}

	// With batching on, one read-only auditor folds every rejection proof
	// the contracts accept in a mined round into one batch verification
	// (see audit.go); it cannot change the run's transcript.
	var auditor *Auditor
	if batch.Resolve(cfg.BatchVerify) {
		auditor = NewAuditor(cfg.Group)
		for _, t := range tasks {
			auditor.Register(t.id, t.RequesterKey().H)
		}
	}

	// All live tasks advance in lockstep, one mined round per iteration.
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
		if err := StepRound(ctx, sh.Chain, tasks, cfg.Parallelism, auditor); err != nil {
			return nil, err
		}
	}
	rounds := sh.Chain.Round()
	for _, t := range tasks {
		if !t.finished {
			t.finalRound = rounds
		}
	}

	res := &Result{
		Tasks:  make([]TaskResult, len(tasks)),
		Rounds: rounds,
		Ledger: sh.Ledger,
		Chain:  sh.Chain,
	}
	if auditor != nil {
		res.AuditedProofs = auditor.Count()
	}
	for ti, t := range tasks {
		tr, err := t.Result(sh.Chain, sh.Ledger)
		if err != nil {
			return nil, err
		}
		res.GasTotal += tr.GasTotal
		res.Tasks[ti] = tr
	}
	if err := sh.Ledger.CheckConservation(); err != nil {
		return nil, fmt.Errorf("market: %w", err)
	}
	return res, nil
}

// StepRound advances the live tasks on one chain through one mined round:
// requesters step in task order, the enrolled workers' answers resolve
// sequentially in (task, worker) order (answer models may share one seeded
// rng), the heavy per-worker crypto of ALL tasks fans out over one work
// pool, the resulting transactions enter the mempool in (task, worker)
// order, the chain mines its round, the optional auditor re-verifies the
// round's accepted rejection proofs, and each task folds the round's events
// into its requester's view of the contract.
//
// Finished tasks are skipped; auditor may be nil when auditing is off.
// Exported so the streaming service (internal/service) drives exactly the
// code path of a batch Run — a task settles identically whichever harness
// hosts it.
func StepRound(ctx context.Context, ch *chain.Chain, tasks []*Runtime, parallelism int, auditor *Auditor) error {
	round := ch.Round()
	var active []*Runtime
	for _, t := range tasks {
		if !t.finished {
			active = append(active, t)
		}
	}
	for _, t := range active {
		if err := t.StepRequester(); err != nil {
			return fmt.Errorf("market: task %q requester step (round %d): %w", t.id, round, err)
		}
	}
	type slot struct {
		t *Runtime
		i int
	}
	var slots []slot
	for _, t := range active {
		for i := range t.clients {
			if err := t.Prepare(i); err != nil {
				return fmt.Errorf("market: task %q worker %d prepare (round %d): %w", t.id, i, round, err)
			}
			slots = append(slots, slot{t: t, i: i})
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
	for _, txs := range txsPerSlot {
		for _, tx := range txs {
			if err := ch.Submit(tx); err != nil {
				return fmt.Errorf("market: round %d: %w", round, err)
			}
		}
	}
	receipts, err := ch.MineRound()
	if err != nil {
		return fmt.Errorf("market: mining round %d: %w", round, err)
	}
	if auditor != nil {
		if err := auditor.Audit(ch.Round(), receipts); err != nil {
			return err
		}
	}
	for _, t := range active {
		if err := t.CheckPhase(ch.Round()); err != nil {
			return err
		}
	}
	return nil
}
