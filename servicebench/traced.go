package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"dragoon/internal/contract"
	"dragoon/internal/parallel"
)

// minCoverage is the least share of round wall time the layer spans must
// account for.
const minCoverage = 0.9

// gasMethods are the contract's metered entry points, deploy included.
var gasMethods = []string{"deploy", contract.MethodPublish, contract.MethodCommit, contract.MethodReveal,
	contract.MethodGolden, contract.MethodEvaluate, contract.MethodOutrange, contract.MethodFinalize}

// tracedShare is the part of --seconds the traced replay measures for; the
// untraced service run then repeats the same number of rounds. Two thirds
// give the slowest workload's rounds (about 150 ms) the 100 samples a
// round-time p90 needs.
const tracedShare = 2.0 / 3

// traced runs the traced replay, then the untraced service from the same
// seed for the same number of rounds. It reports the replay's per-layer
// metrics, and fails unless both runs settled the same tasks with the same
// gas by method, verdicts and rounds.
func traced(ctx context.Context, w workload, seed int64, seconds float64, spansDir string) (*outcome, error) {
	rec := newRecorder()
	s, err := setUp(ctx, w, seed, startReplay(rec))
	if err != nil {
		return nil, err
	}
	r := s.sys.(*replay)
	rec.reset()
	before := r.counts()
	p, err := s.measure(ctx, seconds*tracedShare, 0)
	if err != nil {
		return nil, err
	}
	n := r.counts().sub(before)
	spans := rec.snapshot()
	if len(p.settled) == 0 {
		return nil, errors.New("no task settled in the traced run")
	}

	base, err := setUp(ctx, w, seed, startService)
	if err != nil {
		return nil, err
	}
	bp, err := base.measure(ctx, 0, p.steps)
	if err != nil {
		return nil, err
	}

	o := &outcome{attempted: len(p.settled)}
	diffs := compareRuns(slices.Concat(base.warmup, bp.settled), slices.Concat(s.warmup, p.settled))
	for _, st := range p.settled {
		if st.err != nil || diffs[st.status.ID] != "" {
			o.failed++
		}
	}
	for _, id := range slices.Sorted(maps.Keys(diffs)) {
		o.notes = append(o.notes, fmt.Sprintf("FAIL %s: the traced run differs from the service run: %s", id, diffs[id]))
	}
	errs := taskErrors(base.warmup, bp.settled, s.warmup, p.settled)
	o.notes = append(o.notes, errs...)

	prof := newProfile(spans)
	coverage := prof.coverage()
	o.metrics = layerMetrics(prof, spans, n, p, parallel.Workers(r.cfg.Parallelism))
	o.metrics = append(o.metrics,
		metric{"trace.coverage", "share", coverage},
		metric{"trace.overhead_share", "share", p.wall.Seconds()/bp.wall.Seconds() - 1})
	_, beyond := percentile(prof.rounds, 0.9)
	o.notes = append(o.notes,
		fmt.Sprintf("traced %d rounds in %.2f s (service run: %.2f s): %d tasks, %d questions settled; %d spans",
			p.steps, p.wall.Seconds(), bp.wall.Seconds(), len(p.settled), p.questions, len(spans)),
		fmt.Sprintf("round wall: %d samples, %d beyond p90%s", len(prof.rounds), beyond, validity(beyond)))
	if coverage < minCoverage {
		o.notes = append(o.notes, fmt.Sprintf("FAIL trace coverage %.3f is below %.2f", coverage, minCoverage))
	}
	ledgersOK := true
	for _, sys := range []stepper{base.sys, s.sys} {
		if err := sys.Ledger().CheckConservation(); err != nil {
			ledgersOK = false
			o.notes = append(o.notes, "FAIL ledger: "+err.Error())
		}
	}
	if spansDir != "" {
		if err := os.MkdirAll(spansDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		o.notes = append(o.notes, "spans written to "+path)
	}
	o.correct = len(diffs) == 0 && len(errs) == 0 && ledgersOK && coverage >= minCoverage
	return o, nil
}

// layerMetrics computes the per-layer metrics of a traced measured phase:
// times from span self time, per question settled (or per task, per
// round), counts from the layer boundaries.
func layerMetrics(prof *profile, spans []span, n counts, p *phase, poolWorkers int) []metric {
	q := float64(p.questions)
	ms := func(names ...string) float64 { return float64(prof.selfSum(names...)) / 1e6 }
	busy := ms("Runtime.WorkerTxs")
	reexec := 0.0
	if n.speculated > 0 {
		reexec = float64(n.reexecuted) / float64(n.speculated)
	}
	r50, _ := percentile(prof.rounds, 0.5)
	r90, _ := percentile(prof.rounds, 0.9)
	out := []metric{
		{"service.admit_ms_per_task", "ms", ms("service.admit", "market.NewRuntime", "Runtime.Fund", "Runtime.Launch") / float64(max(1, n.admitted))},
		{"service.retire_ms_per_task", "ms", ms("service.retire", "Chain.PruneContract") / float64(max(1, n.retired))},
		{"service.trim_ms_per_round", "ms", ms("service.trim", "Chain.TrimBefore", "Chain.ExecStats") / float64(len(prof.rounds))},
		{"requester.step_ms_per_question", "ms", ms("Runtime.StepRequester") / q},
		{"requester.harvest_ms_per_question", "ms", ms("Runtime.Result") / q},
		{"worker.prepare_ms_per_question", "ms", ms("Runtime.Prepare") / q},
		{"worker.txs_busy_ms_per_question", "ms", busy / q},
		{"worker.txs_wall_ms_per_question", "ms", float64(prof.dur["worker.pool"]) / 1e6 / q},
		{"worker.pool_idle_share", "share", 1 - busy*1e6/float64(poolCapacity(spans, poolWorkers))},
		{"chain.submit_ms_per_question", "ms", ms("Chain.Submit") / q},
		{"chain.mine_ms_per_question", "ms", ms("Chain.MineRound") / q},
		{"chain.txs_per_question", "count", float64(n.txs) / q},
		{"chain.calldata_bytes_per_question", "bytes", float64(n.calldata) / q},
		{"chain.reverted_share", "share", float64(n.reverted) / float64(max(1, n.txs))},
		{"chain.reexec_share", "share", reexec},
	}
	gas := map[string]uint64{}
	for _, st := range p.settled {
		if st.status.Result != nil {
			for m, g := range st.status.Result.GasByMethod {
				gas[m] += g
			}
		}
	}
	for _, m := range gasMethods {
		out = append(out, metric{"contract.gas_" + m + "_per_question", "gas", float64(gas[m]) / q})
	}
	return append(out,
		metric{"market.phase_ms_per_question", "ms", ms("Runtime.CheckPhase") / q},
		metric{"market.audit_ms_per_question", "ms", ms("market.audit", "Auditor.Audit") / q},
		metric{"market.audited_proofs_per_question", "count", float64(n.audited) / q},
		metric{"market.round_p50_ms", "ms", r50},
		metric{"market.round_p90_ms", "ms", r90},
	)
}

// poolCapacity is the worker pool's goroutine time: each fan-out's wall
// time times the goroutines it ran (the pool size, or fewer items).
func poolCapacity(spans []span, workers int) int64 {
	items := map[int]int{}
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name == "worker.pool" {
			items[s.Parent]++
		}
	}
	var c int64
	for id, n := range items {
		c += spans[id].dur() * int64(min(workers, n))
	}
	return c
}

// compareRuns matches two runs' settled tasks by ID and describes every
// difference in rounds, verdicts or gas by method; a task settled in only
// one run is a difference too.
func compareRuns(a, b []settlement) map[string]string {
	byID := make(map[string]settlement, len(a))
	for _, s := range a {
		byID[s.status.ID] = s
	}
	diffs := map[string]string{}
	for _, y := range b {
		x, ok := byID[y.status.ID]
		delete(byID, y.status.ID)
		xs, ys := x.status, y.status
		switch {
		case !ok:
			diffs[ys.ID] = "settled only in the traced run"
		case xs.AdmittedRound != ys.AdmittedRound || xs.SettledRound != ys.SettledRound:
			diffs[ys.ID] = fmt.Sprintf("rounds %d..%d vs %d..%d", xs.AdmittedRound, xs.SettledRound, ys.AdmittedRound, ys.SettledRound)
		case !slices.Equal(x.verdicts, y.verdicts):
			diffs[ys.ID] = fmt.Sprintf("verdicts %v vs %v", x.verdicts, y.verdicts)
		case (xs.Result == nil) != (ys.Result == nil):
			diffs[ys.ID] = "settled with a result in one run only"
		case xs.Result != nil && !maps.Equal(xs.Result.GasByMethod, ys.Result.GasByMethod):
			diffs[ys.ID] = "gas by method " + gasDiff(xs.Result.GasByMethod, ys.Result.GasByMethod)
		}
	}
	for id := range byID {
		diffs[id] = "settled only in the service run"
	}
	return diffs
}

// gasDiff lists the methods whose gas differs, service run first.
func gasDiff(a, b map[string]uint64) string {
	methods := slices.Collect(maps.Keys(a))
	for m := range b {
		if _, ok := a[m]; !ok {
			methods = append(methods, m)
		}
	}
	slices.Sort(methods)
	var out []string
	for _, m := range methods {
		if a[m] != b[m] {
			out = append(out, fmt.Sprintf("%s %d vs %d", m, a[m], b[m]))
		}
	}
	return strings.Join(out, ", ")
}
