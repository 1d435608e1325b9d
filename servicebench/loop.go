package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"dragoon/internal/chain"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/market"
	"dragoon/internal/opts"
	"dragoon/internal/service"
)

// stepper is the surface the closed loop drives: the streaming service in
// manual mode, or the traced replay of its round (replay.go).
type stepper interface {
	SubmitTask(market.TaskSpec) error
	Step(context.Context) error
	Poll() []service.TaskStatus
	Chain() *chain.Chain
	Ledger() *ledger.Ledger
}

// serviceConfig is the one service configuration every run of a workload
// uses; the traced replay reads the same values.
func serviceConfig(w workload, gen *generator, seed int64) (service.Config, error) {
	grp := group.BN254G1()
	key, err := gen.sharedKey(grp)
	if err != nil {
		return service.Config{}, err
	}
	return service.Config{
		Group:      grp,
		Population: gen.population(),
		SharedKey:  key,
		Seed:       seed,
		Manual:     true,
		Options:    opts.Options{BatchVerify: w.batchVerify},
	}, nil
}

// settlement is one settled task as the generator saw it.
type settlement struct {
	status service.TaskStatus
	// latency is the wall time from SubmitTask to the Poll that reported
	// the task.
	latency time.Duration
	// verdicts are the workers' verdicts as the chain recorded them, in
	// enrollment order.
	verdicts []string
	// err is the output check's finding (nil when the task passed).
	err error
}

// loop is the closed-loop generator: it keeps the workload's C tasks in
// flight, steps the system one round at a time, and checks every task that
// settles.
type loop struct {
	w         workload
	gen       *generator
	sys       stepper
	submitted map[string]time.Time
	inflight  int
	// rejections maps (contract, worker) to the method whose transaction
	// rejected the worker, read from each mined round's receipts (a settled
	// contract's own log is pruned before the generator sees the task).
	rejections map[rejectKey]string
}

type rejectKey struct {
	id     ledger.ContractID
	worker chain.Address
}

func newLoop(w workload, gen *generator, sys stepper) *loop {
	return &loop{
		w:          w,
		gen:        gen,
		sys:        sys,
		submitted:  make(map[string]time.Time),
		rejections: make(map[rejectKey]string),
	}
}

// step tops the loop up to C tasks in flight — at most admit new ones, so
// the warm-up can stagger admissions across rounds — mines one round, and
// returns the tasks that settled in it.
func (l *loop) step(ctx context.Context, admit int) ([]settlement, error) {
	for ; l.inflight < l.w.inflight && admit > 0; admit-- {
		spec, err := l.gen.nextTask()
		if err != nil {
			return nil, err
		}
		if err := l.sys.SubmitTask(spec); err != nil {
			return nil, fmt.Errorf("submitting %s: %w", spec.Instance.Task.ID, err)
		}
		l.submitted[spec.Instance.Task.ID] = time.Now()
		l.inflight++
	}
	if err := l.sys.Step(ctx); err != nil {
		return nil, err
	}
	l.scanRejections()
	var out []settlement
	for _, st := range l.sys.Poll() {
		at, ok := l.submitted[st.ID]
		if !ok {
			return nil, fmt.Errorf("service reported unknown task %q", st.ID)
		}
		delete(l.submitted, st.ID)
		l.inflight--
		s := settlement{status: st, latency: time.Since(at), verdicts: l.verdicts(st)}
		s.err = l.check(st, s.verdicts)
		l.gen.oracle.drop(st.ID)
		out = append(out, s)
	}
	return out, nil
}

// scanRejections records the rejections mined in the round just stepped.
func (l *loop) scanRejections() {
	ch := l.sys.Chain()
	last := ch.Round() - 1
	rcpts := ch.Receipts()
	for i := len(rcpts) - 1; i >= 0 && rcpts[i].Round == last; i-- {
		r := rcpts[i]
		if r.Reverted() {
			continue
		}
		for _, ev := range r.Events {
			if ev.Name != "rejected" {
				continue
			}
			if j := bytes.IndexByte(ev.Data, 0); j > 0 {
				l.rejections[rejectKey{r.Tx.Contract, chain.Address(ev.Data[:j])}] = r.Tx.Method
			}
		}
	}
}

// verdicts reads each worker's verdict off the chain — paid, or rejected
// through the method of the rejecting transaction — and forgets the task's
// rejections.
func (l *loop) verdicts(st service.TaskStatus) []string {
	if st.Result == nil {
		return nil
	}
	out := make([]string, len(st.Result.Outcomes))
	for i, o := range st.Result.Outcomes {
		key := rejectKey{ledger.ContractID(st.ID), o.Addr}
		switch method, ok := l.rejections[key]; {
		case ok:
			out[i] = "rejected via " + method
			delete(l.rejections, key)
		case o.Paid:
			out[i] = verdictPaid
		default:
			out[i] = "undecided"
		}
	}
	return out
}
