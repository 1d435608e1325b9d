package adversary

// Service-path matrix execution: the same adversarial co-location RunMatrix
// performs, but driven through the long-lived streaming service
// (internal/service) instead of the fixed-duration batch harness — every
// scenario's task submitted to one live service, admitted at round 0, mined
// to settlement, and reported through Poll. Running the full matrix down
// BOTH paths and comparing transcripts is the equivalence proof that the
// service's admission mempool, settled-state pruning and retention trimming
// never change what any task pays, emits or costs.

import (
	"context"
	"fmt"

	"dragoon/internal/chain"
	"dragoon/internal/market"
	"dragoon/internal/service"
)

// RunStream executes m independent instances of ONE scenario through the
// streaming service — the service-path mirror of RunMarket, sharing its
// co-location scheme (per-instance requester and worker slice, one network
// adversary over the whole chain). Scenarios pinning their own scheduler run
// here, not in RunMatrixStream: the service hosts exactly one scheduler.
// The returned report is fingerprint-comparable against RunMarket(m, opts)
// byte-for-byte.
func (s Scenario) RunStream(m int, opts Options) (*Report, error) {
	c, err := colocate(s.copies(m), opts)
	if err != nil {
		return nil, err
	}
	var sched chain.Scheduler
	if s.NewScheduler != nil {
		sched = s.NewScheduler(opts.Seed, workerAddrs(c.population), c.requesters)
	}
	return c.runStream(fmt.Sprintf("%s/stream-%d", s.Name, len(c.specs)), sched, opts, false)
}

// RunMatrixStream co-locates many scenarios as tasks streamed through one
// long-lived service on one shared chain. With prune false the service
// retains full history (settled contracts kept, no trimming), so the
// returned report is invariant-checkable and fingerprint-comparable against
// RunMatrix byte-for-byte. With prune true the service runs in its bounded
// production mode — settled contracts pruned, receipts and events trimmed —
// and the per-task reports (payments, balances, outcomes) must still match;
// only the retained history differs. Scenarios pinning their own scheduler
// are rejected, as in RunMatrix.
func RunMatrixStream(scenarios []Scenario, opts Options, prune bool) (*Report, error) {
	if err := participants(scenarios); err != nil {
		return nil, err
	}
	c, err := colocate(scenarios, opts)
	if err != nil {
		return nil, err
	}
	name := "matrix/stream"
	if prune {
		name = "matrix/stream-pruned"
	}
	return c.runStream(name, nil, opts, prune)
}

// runStream submits the co-location's specs to a fresh manual service under
// sched, steps it until each task has settled (or the round bound passed),
// and reports the closed service's final state. Unless prune is set the
// service keeps every settled contract and its full history.
func (c *colocation) runStream(name string, sched chain.Scheduler, opts Options, prune bool) (*Report, error) {
	maxRounds := c.maxRounds
	if maxRounds == 0 {
		maxRounds = 40
	}
	cfg := service.Config{
		Group:           opts.Group,
		Population:      c.population,
		Scheduler:       sched,
		Seed:            opts.Seed,
		WorkerBalance:   opts.WorkerBalance,
		Manual:          true,
		TaskRoundBudget: maxRounds,
		Options:         opts.Options,
	}
	if !prune {
		cfg.KeepSettled = true
	}
	results, svc, err := streamSpecs(cfg, c.specs, maxRounds)
	if err != nil {
		return nil, fmt.Errorf("adversary: %s: %w", name, err)
	}
	for i := range c.reports {
		tr, ok := results[c.reports[i].ID]
		if !ok {
			return nil, fmt.Errorf("adversary: %s: task %q never settled in %d rounds", name, c.reports[i].ID, maxRounds)
		}
		c.reports[i].fill(tr)
	}
	return &Report{
		Name:          name,
		Ledger:        svc.Ledger(),
		Chain:         svc.Chain(),
		WorkerBalance: opts.WorkerBalance,
		Minted:        c.minted,
		Tasks:         c.reports,
	}, nil
}

// streamSpecs submits every spec to a fresh manual service, steps it until
// each has settled (or maxRounds passed), and returns the results by task ID
// alongside the closed service's final state.
func streamSpecs(cfg service.Config, specs []market.TaskSpec, maxRounds int) (map[string]*market.TaskResult, *service.Service, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	for i := range specs {
		if err := svc.SubmitTask(specs[i]); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", specs[i].Instance.Task.ID, err)
		}
	}
	results := make(map[string]*market.TaskResult, len(specs))
	for r := 0; r < maxRounds && len(results) < len(specs); r++ {
		if err := svc.Step(context.Background()); err != nil {
			return nil, nil, err
		}
		for _, st := range svc.Poll() {
			if st.Err != nil {
				return nil, nil, fmt.Errorf("task %q rejected: %w", st.ID, st.Err)
			}
			if st.Expired {
				return nil, nil, fmt.Errorf("task %q expired unsettled", st.ID)
			}
			results[st.ID] = st.Result
		}
	}
	if err := svc.Close(); err != nil {
		return nil, nil, err
	}
	return results, svc, nil
}
