package main

import (
	"strings"
	"testing"

	"dragoon/internal/chain"
	"dragoon/internal/market"
	"dragoon/internal/service"
)

// spamTask is a settled spam_reject task as the checks see it: three bots
// below the golden threshold, rejected through evaluate, and one worker with
// an out-of-range answer, rejected through outrange.
func spamTask() (service.TaskStatus, []string) {
	res := &market.TaskResult{ID: "t1", Finalized: true, HarvestedAnswers: map[chain.Address][]int64{}}
	for i, name := range []string{"bot-0", "bot-1", "bot-2", "outrange-0"} {
		answers := make([]int64, 32)
		quality := 3
		if name == "outrange-0" {
			answers[7] = 4
			quality = 16
		}
		addr := market.WorkerAddr(i, name)
		res.Outcomes = append(res.Outcomes, market.WorkerOutcome{
			Name: name, Addr: addr, Answers: answers, Quality: quality, Revealed: true, Rejected: true,
		})
		res.HarvestedAnswers[addr] = harvestOf(answers, 4)
	}
	return service.TaskStatus{ID: "t1", AdmittedRound: 3, SettledRound: 12, Result: res},
		[]string{verdictEvaluate, verdictEvaluate, verdictEvaluate, verdictOutrange}
}

func TestCheckAcceptsPredictedVerdicts(t *testing.T) {
	w, _ := findWorkload("spam_reject")
	st, verdicts := spamTask()
	if err := (&loop{w: w}).check(st, verdicts); err != nil {
		t.Fatal(err)
	}
	if got := st.Result.HarvestedAnswers[st.Result.Outcomes[3].Addr][7]; got != -1 {
		t.Errorf("out-of-range answer harvested as %d, want -1", got)
	}
}

func TestCheckRejects(t *testing.T) {
	w, _ := findWorkload("spam_reject")
	l := &loop{w: w}
	for name, tc := range map[string]struct {
		mutate func(*service.TaskStatus, []string)
		want   string
	}{
		"bot paid": {func(st *service.TaskStatus, v []string) {
			st.Result.Outcomes[0].Paid, st.Result.Outcomes[0].Rejected = true, false
			v[0] = verdictPaid
		}, "predict rejected via evaluate"},
		"outrange rejected through evaluate": {func(_ *service.TaskStatus, v []string) {
			v[3] = verdictEvaluate
		}, "predict rejected via outrange"},
		"receipts disagree with the contract log": {func(st *service.TaskStatus, _ []string) {
			st.Result.Outcomes[1].Paid, st.Result.Outcomes[1].Rejected = true, false
		}, "the receipts say"},
		"harvest differs": {func(st *service.TaskStatus, _ []string) {
			st.Result.HarvestedAnswers[st.Result.Outcomes[2].Addr][0] = 1
		}, "harvested answers differ"},
		"no reveal": {func(st *service.TaskStatus, _ []string) {
			st.Result.Outcomes[2].Revealed = false
		}, "did not reveal"},
		"expired": {func(st *service.TaskStatus, _ []string) {
			st.Expired, st.Result = true, nil
		}, "expired"},
		"cancelled": {func(st *service.TaskStatus, _ []string) {
			st.Result.Finalized = false
		}, "without finalizing"},
	} {
		st, verdicts := spamTask()
		tc.mutate(&st, verdicts)
		err := l.check(st, verdicts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check returned %v, want an error containing %q", name, err, tc.want)
		}
	}
}

func TestCheckRequiresHonestWorkersPaid(t *testing.T) {
	w, _ := findWorkload("imagenet_honest")
	res := &market.TaskResult{ID: "t1", Finalized: true, HarvestedAnswers: map[chain.Address][]int64{}}
	verdicts := make([]string, w.workers())
	for i := range verdicts {
		addr := market.WorkerAddr(i, "honest")
		// A quality the workload's golden set cannot produce for a truthful
		// worker: the prediction says evaluate, and so does the chain.
		res.Outcomes = append(res.Outcomes, market.WorkerOutcome{
			Name: "honest-" + string(rune('0'+i)), Addr: addr, Answers: make([]int64, w.n), Quality: 0,
			Revealed: true, Rejected: true,
		})
		res.HarvestedAnswers[addr] = make([]int64, w.n)
		verdicts[i] = verdictEvaluate
	}
	err := (&loop{w: w}).check(service.TaskStatus{ID: "t1", Result: res}, verdicts)
	if err == nil || !strings.Contains(err.Error(), "honest worker") {
		t.Errorf("check returned %v, want an error about an unpaid honest worker", err)
	}
}
