package adversary_test

import (
	"fmt"
	"testing"

	"dragoon/internal/adversary"
	"dragoon/internal/group"
	opt "dragoon/internal/opts"
)

func opts(parallelism int) adversary.Options {
	return adversary.Options{
		Group:         group.TestSchnorr(),
		Seed:          1729,
		WorkerBalance: 5,
		Options:       opt.Options{Parallelism: parallelism},
	}
}

// fingerprint folds a report's observable artifacts — receipts, events,
// outcomes, balances — into one comparable string, so determinism across
// parallelism levels is checked byte-for-byte.
func fingerprint(r *adversary.Report) string {
	s := ""
	for _, t := range r.Tasks {
		s += fmt.Sprintf("task %s req=%s bal=%d fin=%v can=%v\n",
			t.ID, t.Requester, t.RequesterBalance, t.Finalized, t.Cancelled)
		for _, o := range t.Outcomes {
			s += fmt.Sprintf("  %s paid=%v rejected=%v revealed=%v q=%d answers=%v\n",
				o.Addr, o.Paid, o.Rejected, o.Revealed, o.Quality, o.Answers)
		}
	}
	for _, rcpt := range r.Chain.Receipts() {
		s += fmt.Sprintf("rcpt r=%d from=%s m=%s gas=%d err=%v data=%x\n",
			rcpt.Round, rcpt.Tx.From, rcpt.Tx.Method, rcpt.GasUsed, rcpt.Err, rcpt.Tx.Data)
	}
	for _, ev := range r.Chain.Events() {
		s += fmt.Sprintf("ev r=%d %s %x\n", ev.Round, ev.Name, ev.Data)
	}
	return s
}

// TestMatrixSim sweeps every scenario through the single-task sim harness
// at parallelism 1 and NumCPU: both runs must satisfy every invariant and
// be byte-identical to each other.
func TestMatrixSim(t *testing.T) {
	for _, s := range adversary.Matrix() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			seq, err := s.RunSim(opts(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := seq.CheckInvariants(); err != nil {
				t.Errorf("sequential run violates invariants: %v", err)
			}
			par, err := s.RunSim(opts(0))
			if err != nil {
				t.Fatal(err)
			}
			if err := par.CheckInvariants(); err != nil {
				t.Errorf("parallel run violates invariants: %v", err)
			}
			if fingerprint(seq) != fingerprint(par) {
				t.Error("parallel run diverged from sequential run")
			}
		})
	}
}

// TestMatrixMarket sweeps every scenario as two concurrent instances on one
// shared chain (each with its own requester, contract and worker slice,
// under the scenario's one network adversary), again at both parallelism
// levels.
func TestMatrixMarket(t *testing.T) {
	for _, s := range adversary.Matrix() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			seq, err := s.RunMarket(2, opts(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := seq.CheckInvariants(); err != nil {
				t.Errorf("sequential run violates invariants: %v", err)
			}
			par, err := s.RunMarket(2, opts(0))
			if err != nil {
				t.Fatal(err)
			}
			if err := par.CheckInvariants(); err != nil {
				t.Errorf("parallel run violates invariants: %v", err)
			}
			if fingerprint(seq) != fingerprint(par) {
				t.Error("parallel run diverged from sequential run")
			}
		})
	}
}

// TestParticipantMatrixSharedChain co-locates every participant-level
// scenario (byzantine workers and malicious requesters, no pinned
// scheduler) as concurrent tasks of ONE marketplace on ONE chain — the full
// adversarial matrix attacking side by side — and checks every invariant on
// the shared final state.
func TestParticipantMatrixSharedChain(t *testing.T) {
	scenarios := adversary.ParticipantMatrix()
	if len(scenarios) < 10 {
		t.Fatalf("participant matrix too small: %d scenarios", len(scenarios))
	}
	seq, err := adversary.RunMatrix(scenarios, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.CheckInvariants(); err != nil {
		t.Errorf("sequential matrix violates invariants: %v", err)
	}
	par, err := adversary.RunMatrix(scenarios, opts(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := par.CheckInvariants(); err != nil {
		t.Errorf("parallel matrix violates invariants: %v", err)
	}
	if fingerprint(seq) != fingerprint(par) {
		t.Error("parallel matrix run diverged from sequential run")
	}
}

// scenario fetches one catalogue entry by name.
func scenario(t *testing.T, name string) adversary.Scenario {
	t.Helper()
	for _, s := range adversary.Matrix() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no scenario %q in the matrix", name)
	return adversary.Scenario{}
}

// TestStructuralOutcomes pins the mechanism of each byzantine scenario —
// not just that invariants hold, but that the attack failed the way the
// security argument says it fails.
func TestStructuralOutcomes(t *testing.T) {
	run := func(name string) *adversary.Report {
		t.Helper()
		rep, err := scenario(t, name).RunSim(opts(0))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	outcome := func(rep *adversary.Report, i int) (paid, rejected, revealed bool) {
		o := rep.Tasks[0].Outcomes[i]
		return o.Paid, o.Rejected, o.Revealed
	}

	t.Run("garbled-reveal forfeits", func(t *testing.T) {
		rep := run("garbled-reveal")
		if paid, _, revealed := outcome(rep, 2); paid || revealed {
			t.Errorf("garbler paid=%v revealed=%v, want unrevealed and unpaid", paid, revealed)
		}
	})
	t.Run("replayed-reveal forfeits", func(t *testing.T) {
		rep := run("replayed-reveal")
		if paid, _, revealed := outcome(rep, 2); paid || revealed {
			t.Errorf("replayer paid=%v revealed=%v, want unrevealed and unpaid", paid, revealed)
		}
	})
	t.Run("equivocator paid under FIFO", func(t *testing.T) {
		rep := run("equivocator")
		if paid, _, _ := outcome(rep, 2); !paid {
			t.Error("equivocator's first commitment should win under FIFO and pay")
		}
	})
	t.Run("equivocator stranded under reorder", func(t *testing.T) {
		rep := run("equivocator-reordered")
		if paid, _, revealed := outcome(rep, 2); paid || revealed {
			t.Errorf("equivocator paid=%v revealed=%v under reorder, want opening stranded", paid, revealed)
		}
	})
	t.Run("golden-wrong rejected with proof", func(t *testing.T) {
		rep := run("golden-wrong-rejected")
		if paid, rejected, _ := outcome(rep, 2); paid || !rejected {
			t.Errorf("golden-wrong paid=%v rejected=%v, want a PoQoEA rejection", paid, rejected)
		}
	})
	t.Run("out-of-range rejected with proof", func(t *testing.T) {
		rep := run("out-of-range")
		if paid, rejected, _ := outcome(rep, 2); paid || !rejected {
			t.Errorf("out-of-range paid=%v rejected=%v, want a VPKE rejection", paid, rejected)
		}
	})
	t.Run("garbled proofs pay even the low-quality worker", func(t *testing.T) {
		rep := run("garbled-proof")
		if paid, rejected, _ := outcome(rep, 2); !paid || rejected {
			t.Errorf("worker paid=%v rejected=%v, want forged-proof rejection to backfire", paid, rejected)
		}
	})
	t.Run("premature cancels all revert", func(t *testing.T) {
		rep := run("premature-cancel")
		reverted := 0
		for _, rcpt := range rep.Chain.Receipts() {
			if rcpt.Tx.Method == "finalize" && rcpt.Reverted() {
				reverted++
			}
		}
		if reverted == 0 {
			t.Error("expected premature finalize attempts to revert")
		}
		for i := range rep.Tasks[0].Outcomes {
			if !rep.Tasks[0].Outcomes[i].Paid {
				t.Errorf("worker %d unpaid despite the requester never rejecting", i)
			}
		}
	})
	t.Run("withheld questions leave no commitments", func(t *testing.T) {
		rep := run("withheld-questions")
		for _, rcpt := range rep.Chain.Receipts() {
			if rcpt.Tx.Method == "commit" {
				t.Error("a worker committed to unverifiable content")
			}
		}
	})
}

// TestMatrixRejectsPinnedScheduler pins the co-location guard of both
// matrix harnesses: a chain has one network adversary, so a scenario that
// brings its own scheduler is refused before anything runs.
func TestMatrixRejectsPinnedScheduler(t *testing.T) {
	scenarios := append(adversary.ParticipantMatrix()[:1:1], scenario(t, "rushing"))
	const want = `adversary: scenario "rushing" pins its own scheduler; run it alone`
	if _, err := adversary.RunMatrix(scenarios, opts(0)); err == nil || err.Error() != want {
		t.Errorf("RunMatrix: err = %v, want %q", err, want)
	}
	if _, err := adversary.RunMatrixStream(scenarios, opts(0), false); err == nil || err.Error() != want {
		t.Errorf("RunMatrixStream: err = %v, want %q", err, want)
	}
}

// TestCheckerCatchesViolations proves the invariant checker is not vacuous:
// corrupted reports must fail it.
func TestCheckerCatchesViolations(t *testing.T) {
	base := func() *adversary.Report {
		t.Helper()
		rep, err := scenario(t, "baseline-honest").RunSim(opts(0))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	t.Run("clean report passes", func(t *testing.T) {
		if err := base().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("inflated supply detected", func(t *testing.T) {
		rep := base()
		rep.Ledger.Mint("thin-air", 1)
		if err := rep.CheckInvariants(); err == nil {
			t.Error("minting out of thin air went undetected")
		}
	})
	t.Run("forged outcome detected", func(t *testing.T) {
		rep := base()
		rep.Tasks[0].Outcomes[0].Paid = false
		if err := rep.CheckInvariants(); err == nil {
			t.Error("outcome disagreeing with the event log went undetected")
		}
	})
	t.Run("wrong settlement expectation detected", func(t *testing.T) {
		rep := base()
		rep.Tasks[0].ExpectCancel = true
		if err := rep.CheckInvariants(); err == nil {
			t.Error("finalized task accepted against a cancel prediction")
		}
	})
	t.Run("honest left unpaid detected", func(t *testing.T) {
		rep := base()
		// Pretend an extra honest worker exists whose outcome says unpaid.
		rep.Tasks[0].Outcomes[0].Paid = false
		rep.Tasks[0].Outcomes[0].Revealed = false
		if err := rep.CheckInvariants(); err == nil {
			t.Error("unpaid honest worker went undetected")
		}
	})
}
