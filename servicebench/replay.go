package main

import (
	"context"
	"errors"
	"fmt"

	"dragoon/internal/batch"
	"dragoon/internal/chain"
	"dragoon/internal/ledger"
	"dragoon/internal/market"
	"dragoon/internal/parallel"
	"dragoon/internal/service"
	"dragoon/internal/swarm"
)

// replay is the traced stand-in for the service: it re-plays the streaming
// service's round (service.step → market.StepRound) on the service's own
// configuration through the layers' exported calls, with a span around each call. It
// mirrors an unsharded service with the default retention settings, so a
// seed gives the same chain, gas and settlements on both; the trace run
// checks that it does.
type replay struct {
	cfg      service.Config
	rec      *recorder
	ch       *chain.Chain
	led      *ledger.Ledger
	store    *swarm.Store
	auditor  *market.Auditor
	popAddrs []chain.Address

	queue   []market.TaskSpec
	active  []*replayTask
	results []service.TaskStatus
	content map[swarm.Digest]int
	next    int

	n counts
}

// counts are taken at the layer boundaries the replay drives.
type counts struct {
	admitted, retired       int // tasks
	txs, reverted, calldata int // mined transactions and their bytes
	speculated, reexecuted  uint64
	audited                 int // VPKE openings the round auditor folded
}

func (c counts) sub(o counts) counts {
	return counts{
		admitted: c.admitted - o.admitted, retired: c.retired - o.retired,
		txs: c.txs - o.txs, reverted: c.reverted - o.reverted, calldata: c.calldata - o.calldata,
		speculated: c.speculated - o.speculated, reexecuted: c.reexecuted - o.reexecuted,
		audited: c.audited - o.audited,
	}
}

// counts returns the counts so far.
func (r *replay) counts() counts {
	c := r.n
	if r.auditor != nil {
		c.audited = r.auditor.Count()
	}
	return c
}

type replayTask struct {
	rt        *market.Runtime
	admitted  int
	questions swarm.Digest
}

func newReplay(cfg service.Config, rec *recorder) *replay {
	sh := chain.NewShard(0, cfg.Scheduler)
	sh.Chain.SetParallelExecution(chain.ResolveExecWorkers(cfg.ParallelExec, cfg.Parallelism))
	r := &replay{
		cfg: cfg, rec: rec,
		ch: sh.Chain, led: sh.Ledger, store: sh.Store,
		content: make(map[swarm.Digest]int),
	}
	for i, m := range cfg.Population {
		r.popAddrs = append(r.popAddrs, market.WorkerAddr(i, m.Name))
		if cfg.WorkerBalance > 0 {
			r.led.Mint(ledger.AccountID(r.popAddrs[i]), cfg.WorkerBalance)
		}
	}
	if batch.Resolve(cfg.BatchVerify) {
		r.auditor = market.NewAuditor(cfg.Group)
	}
	return r
}

func startReplay(rec *recorder) newSystem {
	return func(w workload, gen *generator, seed int64) (stepper, error) {
		cfg, err := serviceConfig(w, gen, seed)
		if err != nil {
			return nil, err
		}
		return newReplay(cfg, rec), nil
	}
}

func (r *replay) SubmitTask(spec market.TaskSpec) error {
	if spec.Instance == nil || spec.Instance.Task.ID == "" {
		return errors.New("replay: task has no instance or ID")
	}
	r.queue = append(r.queue, spec)
	return nil
}

func (r *replay) Poll() []service.TaskStatus {
	out := r.results
	r.results = nil
	return out
}

func (r *replay) Chain() *chain.Chain    { return r.ch }
func (r *replay) Ledger() *ledger.Ledger { return r.led }

// call runs fn inside a span.
func (r *replay) call(name string, parent int, task string, fn func() error) error {
	id := r.rec.begin(name, parent, task)
	err := fn()
	r.rec.end(id)
	return err
}

// Step is one service round: admit, the market round, settle, trim.
func (r *replay) Step(ctx context.Context) error {
	root := r.rec.begin("round", -1, "")
	defer r.rec.end(root)

	queue := r.queue
	r.queue = nil
	for _, spec := range queue {
		r.admit(root, spec)
	}
	if len(r.active) == 0 {
		return nil
	}
	if err := r.marketRound(ctx, root); err != nil {
		return err
	}
	if err := r.settle(root); err != nil {
		return err
	}
	trim := r.rec.begin("service.trim", root, "")
	r.trim(trim)
	r.rec.end(trim)
	return nil
}

// admit is service.admitLocked: a spec that fails admission is reported
// through Poll and does not consume an admission index.
func (r *replay) admit(root int, spec market.TaskSpec) {
	id := spec.Instance.Task.ID
	span := r.rec.begin("service.admit", root, id)
	defer r.rec.end(span)
	seed := spec.Seed
	if seed == 0 {
		seed = market.DerivedTaskSeed(r.cfg.Seed, r.next)
	}
	var rt *market.Runtime
	err := r.call("market.NewRuntime", span, id, func() (err error) {
		rt, err = market.NewRuntime(market.RuntimeConfig{
			Spec:        spec,
			Index:       r.next,
			Seed:        seed,
			Group:       r.cfg.Group,
			Backend:     r.ch,
			Store:       r.store,
			Population:  r.cfg.Population,
			PopAddrs:    r.popAddrs,
			SharedKey:   r.cfg.SharedKey,
			BatchVerify: r.cfg.BatchVerify,
		})
		return err
	})
	if err != nil {
		r.results = append(r.results, service.TaskStatus{ID: id, Err: err})
		return
	}
	for _, t := range r.active {
		if t.rt.ID() == rt.ID() {
			r.results = append(r.results, service.TaskStatus{ID: id, Err: fmt.Errorf("replay: task %q already active", id)})
			return
		}
	}
	_ = r.call("Runtime.Fund", span, id, func() error {
		rt.Fund(r.led)
		return nil
	})
	if err := r.call("Runtime.Launch", span, id, rt.Launch); err != nil {
		r.results = append(r.results, service.TaskStatus{ID: id, Err: err})
		return
	}
	if r.auditor != nil {
		r.auditor.Register(rt.ID(), rt.RequesterKey().H)
	}
	t := &replayTask{rt: rt, admitted: r.ch.Round(), questions: swarm.Address(spec.Instance.Task.MarshalQuestions())}
	r.content[t.questions]++
	r.active = append(r.active, t)
	r.next++
	r.n.admitted++
}

// marketRound is market.StepRound with a span around each call.
func (r *replay) marketRound(ctx context.Context, root int) error {
	round := r.ch.Round()
	for _, t := range r.active {
		if err := r.call("Runtime.StepRequester", root, string(t.rt.ID()), t.rt.StepRequester); err != nil {
			return fmt.Errorf("replay: task %q requester step (round %d): %w", t.rt.ID(), round, err)
		}
	}
	type slot struct {
		t *market.Runtime
		i int
	}
	var slots []slot
	for _, t := range r.active {
		for i := 0; i < t.rt.Workers(); i++ {
			if err := r.call("Runtime.Prepare", root, string(t.rt.ID()), func() error { return t.rt.Prepare(i) }); err != nil {
				return fmt.Errorf("replay: task %q worker %d prepare (round %d): %w", t.rt.ID(), i, round, err)
			}
			slots = append(slots, slot{t: t.rt, i: i})
		}
	}
	pool := r.rec.begin("worker.pool", root, "")
	txsPerSlot, err := parallel.Map(ctx, len(slots), r.cfg.Parallelism,
		func(k int) ([]*chain.Tx, error) {
			s := slots[k]
			var txs []*chain.Tx
			err := r.call("Runtime.WorkerTxs", pool, string(s.t.ID()), func() (err error) {
				txs, err = s.t.WorkerTxs(s.i)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("replay: task %q worker %d step (round %d): %w", s.t.ID(), s.i, round, err)
			}
			return txs, nil
		})
	r.rec.end(pool)
	if err != nil {
		return err
	}
	for _, txs := range txsPerSlot {
		for _, tx := range txs {
			if err := r.call("Chain.Submit", root, string(tx.Contract), func() error { return r.ch.Submit(tx) }); err != nil {
				return fmt.Errorf("replay: round %d: %w", round, err)
			}
		}
	}
	var rcpts []*chain.Receipt
	err = r.call("Chain.MineRound", root, "", func() (err error) {
		rcpts, err = r.ch.MineRound()
		return err
	})
	if err != nil {
		return fmt.Errorf("replay: mining round %d: %w", round, err)
	}
	for _, rc := range rcpts {
		r.n.txs++
		r.n.calldata += len(rc.Tx.Data)
		if rc.Reverted() {
			r.n.reverted++
		}
	}
	audit := r.rec.begin("market.audit", root, "")
	if r.auditor != nil {
		err = r.call("Auditor.Audit", audit, "", func() error { return r.auditor.Audit(r.ch.Round(), rcpts) })
	}
	r.rec.end(audit)
	if err != nil {
		return err
	}
	for _, t := range r.active {
		if err := r.call("Runtime.CheckPhase", root, string(t.rt.ID()), func() error { return t.rt.CheckPhase(r.ch.Round()) }); err != nil {
			return err
		}
	}
	return nil
}

// settle is service.settleLocked: report and retire settled and expired
// tasks.
func (r *replay) settle(root int) error {
	round := r.ch.Round()
	keep := r.active[:0]
	for _, t := range r.active {
		id := string(t.rt.ID())
		switch {
		case t.rt.Finished():
			var res market.TaskResult
			err := r.call("Runtime.Result", root, id, func() (err error) {
				res, err = t.rt.Result(r.ch, r.led)
				return err
			})
			if err != nil {
				return err
			}
			if err := r.retire(root, t, true); err != nil {
				return err
			}
			r.results = append(r.results, service.TaskStatus{
				ID: res.ID, AdmittedRound: t.admitted, SettledRound: round, Result: &res,
			})
		case round-t.admitted >= service.DefaultTaskRoundBudget:
			if err := r.retire(root, t, false); err != nil {
				return err
			}
			r.results = append(r.results, service.TaskStatus{
				ID: id, AdmittedRound: t.admitted, SettledRound: round, Expired: true,
			})
		default:
			keep = append(keep, t)
		}
	}
	clear(r.active[len(keep):])
	r.active = keep
	return nil
}

// retire is service.retireLocked.
func (r *replay) retire(root int, t *replayTask, prune bool) error {
	id := t.rt.ID()
	span := r.rec.begin("service.retire", root, string(id))
	defer r.rec.end(span)
	r.n.retired++
	if r.auditor != nil {
		r.auditor.Unregister(id)
	}
	if r.content[t.questions]--; r.content[t.questions] == 0 {
		delete(r.content, t.questions)
		if prune {
			r.store.Delete(t.questions)
		}
	}
	if !prune {
		return nil
	}
	if err := r.call("Chain.PruneContract", span, string(id), func() error { return r.ch.PruneContract(id) }); err != nil {
		return fmt.Errorf("replay: pruning settled task: %w", err)
	}
	return nil
}

// trim is service.trimLocked with the default retention windows, plus the
// executor counters read at the same boundary.
func (r *replay) trim(parent int) {
	floor := r.ch.Round() - service.DefaultRetainRounds
	for _, t := range r.active {
		if t.admitted < floor {
			floor = t.admitted
		}
	}
	if floor > 0 {
		_ = r.call("Chain.TrimBefore", parent, "", func() error {
			r.ch.TrimBefore(floor)
			return nil
		})
	}
	r.led.TrimEvents(service.DefaultRetainLedgerEvents)
	_ = r.call("Chain.ExecStats", parent, "", func() error {
		r.n.speculated, r.n.reexecuted = r.ch.ExecStats()
		return nil
	})
}
