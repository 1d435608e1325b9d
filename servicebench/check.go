package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"dragoon/internal/contract"
	"dragoon/internal/market"
	"dragoon/internal/service"
)

// Verdicts a worker can get, as predicted from its own answers and as read
// from the chain.
const (
	verdictPaid     = "paid"
	verdictOutrange = "rejected via " + contract.MethodOutrange
	verdictEvaluate = "rejected via " + contract.MethodEvaluate
)

// check verifies one settled task: it finalized inside its round budget,
// every worker revealed and got the verdict its own answers predict (an
// out-of-range answer is rejected through outrange, a golden quality below
// the threshold through evaluate, anything else is paid; honest oracle
// workers must be paid), and the requester harvested exactly what each
// worker submitted.
func (l *loop) check(st service.TaskStatus, verdicts []string) error {
	switch {
	case st.Err != nil:
		return fmt.Errorf("task %s failed admission: %w", st.ID, st.Err)
	case st.Expired:
		return fmt.Errorf("task %s expired after %d rounds", st.ID, st.SettledRound-st.AdmittedRound)
	case st.Result == nil || !st.Result.Finalized:
		return fmt.Errorf("task %s settled without finalizing", st.ID)
	}
	res := st.Result
	if len(res.Outcomes) != l.w.workers() {
		return fmt.Errorf("task %s: %d worker outcomes, want %d", st.ID, len(res.Outcomes), l.w.workers())
	}
	var errs []error
	for i, o := range res.Outcomes {
		want, got := l.predict(o), verdicts[i]
		switch {
		case !o.Revealed:
			errs = append(errs, fmt.Errorf("%s did not reveal", o.Name))
		case o.Paid == o.Rejected:
			errs = append(errs, fmt.Errorf("%s: paid=%v rejected=%v", o.Name, o.Paid, o.Rejected))
		case o.Paid != (got == verdictPaid) || o.Rejected != strings.HasPrefix(got, "rejected"):
			errs = append(errs, fmt.Errorf("%s: the contract log says paid=%v rejected=%v, the receipts say %s", o.Name, o.Paid, o.Rejected, got))
		case got != want:
			errs = append(errs, fmt.Errorf("%s: %s, but its answers predict %s", o.Name, got, want))
		case strings.HasPrefix(o.Name, "honest-") && got != verdictPaid:
			errs = append(errs, fmt.Errorf("honest worker %s: %s", o.Name, got))
		}
		if h, want := res.HarvestedAnswers[o.Addr], harvestOf(o.Answers, l.w.rangeSize); !slices.Equal(h, want) {
			errs = append(errs, fmt.Errorf("%s: harvested answers differ from the submitted ones", o.Name))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("task %s: %w", st.ID, err)
	}
	return nil
}

// predict is the verdict a worker's own answers earn under the contract's
// rules.
func (l *loop) predict(o market.WorkerOutcome) string {
	if o.Answers == nil {
		return "no answers"
	}
	for _, a := range o.Answers {
		if a < 0 || a >= l.w.rangeSize {
			return verdictOutrange
		}
	}
	if o.Quality < l.w.threshold {
		return verdictEvaluate
	}
	return verdictPaid
}

// harvestOf is what the requester decrypts from a submission: each answer,
// with out-of-range entries read as -1.
func harvestOf(answers []int64, rangeSize int64) []int64 {
	if answers == nil {
		return nil
	}
	out := make([]int64, len(answers))
	for i, a := range answers {
		if a < 0 || a >= rangeSize {
			a = -1
		}
		out[i] = a
	}
	return out
}
