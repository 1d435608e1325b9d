package adversary_test

import (
	"errors"
	"testing"

	"dragoon/internal/adversary"
	"dragoon/internal/chain"
	"dragoon/internal/contract"
	"dragoon/internal/incentive"
	"dragoon/internal/ledger"
	"dragoon/internal/protocol"
)

// econScenarios returns the catalogue entries declaring an economic
// structure — the rational/collusion/sybil matrix additions.
func econScenarios(t *testing.T) []adversary.Scenario {
	t.Helper()
	var out []adversary.Scenario
	for _, s := range adversary.Matrix() {
		if s.Econ != nil {
			out = append(out, s)
		}
	}
	if len(out) < 6 {
		t.Fatalf("matrix declares %d economic scenarios, want ≥6", len(out))
	}
	return out
}

// TestEconMatrixStructure pins the mechanism of each economic scenario —
// the rational engine's realized choice and the audit's verdict on shared
// streams, not just that invariants hold.
func TestEconMatrixStructure(t *testing.T) {
	run := func(name string) *adversary.Report {
		t.Helper()
		rep, err := scenario(t, name).RunSim(opts(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return rep
	}

	t.Run("rational-dominant works and is paid", func(t *testing.T) {
		rep := run("rational-dominant")
		o := rep.Tasks[0].Outcomes[2]
		if !o.Paid || o.Rejected || o.Answers == nil {
			t.Fatalf("rational worker paid=%v rejected=%v answered=%v, want honest play paid",
				o.Paid, o.Rejected, o.Answers != nil)
		}
		if o.Quality != rep.Tasks[0].NumGolden {
			t.Fatalf("rational worker quality %d, want perfect %d", o.Quality, rep.Tasks[0].NumGolden)
		}
	})
	t.Run("rational-starved abstains and the task cancels", func(t *testing.T) {
		rep := run("rational-starved")
		tk := rep.Tasks[0]
		if !tk.Cancelled {
			t.Fatal("stingy-reward task finalized, want cancellation by abstention")
		}
		if o := tk.Outcomes[2]; o.Answers != nil || o.Paid {
			t.Fatalf("rational worker answered=%v paid=%v at a stingy reward, want abstention",
				o.Answers != nil, o.Paid)
		}
	})
	t.Run("rational-freeride guesses", func(t *testing.T) {
		rep := run("rational-freeride")
		o := rep.Tasks[0].Outcomes[2]
		if o.Answers == nil {
			t.Fatal("free-riding rational worker never committed, want a zero-effort guess stream")
		}
		if o.Quality == rep.Tasks[0].NumGolden {
			t.Fatal("free-rider's guess stream is perfect — it did the work it priced out")
		}
	})
	t.Run("collusion ring rejected together", func(t *testing.T) {
		rep := run("collude-lazy")
		for _, i := range []int{2, 3} {
			if o := rep.Tasks[0].Outcomes[i]; o.Paid || !o.Rejected {
				t.Fatalf("ring member %d paid=%v rejected=%v, want the shared stream voided",
					i, o.Paid, o.Rejected)
			}
		}
	})
	t.Run("sybil swarm voided at once", func(t *testing.T) {
		rep := run("sybil-lazy")
		for _, i := range []int{2, 3, 4} {
			if o := rep.Tasks[0].Outcomes[i]; o.Paid || !o.Rejected {
				t.Fatalf("sybil address %d paid=%v rejected=%v, want every identity rejected",
					i, o.Paid, o.Rejected)
			}
		}
	})
}

// TestEconRewardRegimes checks the catalogue's reward regimes against the
// incentive solver: every generous (dominant-regime) scenario posts a
// per-slot reward at or above MinimalReward for the standard profile, and
// every stingy one posts a reward under which no strategy breaks even.
func TestEconRewardRegimes(t *testing.T) {
	for _, s := range econScenarios(t) {
		rep, err := s.RunSim(opts(0))
		if err != nil {
			t.Fatal(err)
		}
		tk := rep.Tasks[0]
		p := incentive.Params{
			NumGolden:  tk.NumGolden,
			Threshold:  tk.Threshold,
			RangeSize:  tk.RangeSize,
			Reward:     float64(tk.Budget / ledger.Amount(tk.Quota)),
			SubmitCost: 1,
		}
		switch s.Econ.Regime {
		case "dominant":
			minR, err := incentive.MinimalReward(p, 1, 20)
			if err != nil {
				t.Fatalf("%s: MinimalReward: %v", s.Name, err)
			}
			if p.Reward < minR {
				t.Errorf("%s posts reward %v below the dominant bound %v", s.Name, p.Reward, minR)
			}
		case "stingy":
			if incentive.Decide(p, 1, 20) != incentive.ChoiceAbstain {
				t.Errorf("%s claims a stingy regime but the rational choice is not abstention", s.Name)
			}
		default:
			t.Errorf("%s has unknown regime %q", s.Name, s.Econ.Regime)
		}
	}
}

// TestEconCheckerCatchesViolations proves the economic checker is not
// vacuous: corrupting a clean report in each interesting way must surface
// the matching typed error.
func TestEconCheckerCatchesViolations(t *testing.T) {
	run := func(name string) *adversary.Report {
		t.Helper()
		rep, err := scenario(t, name).RunSim(opts(0))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	expect := func(t *testing.T, rep *adversary.Report, want error) {
		t.Helper()
		err := rep.CheckInvariants()
		if err == nil {
			t.Fatal("corrupted report passed the checker")
		}
		if !errors.Is(err, want) {
			t.Fatalf("CheckInvariants = %v, want %v", err, want)
		}
	}

	t.Run("overpaid coalition", func(t *testing.T) {
		rep := run("collude-lazy")
		for _, i := range []int{2, 3} {
			o := &rep.Tasks[0].Outcomes[i]
			o.Paid, o.Rejected = true, false
			o.Quality = rep.Tasks[0].Threshold // dodge the audit gate to hit the profit bound
		}
		expect(t, rep, adversary.ErrCoalitionProfit)
	})
	t.Run("audit bypassed", func(t *testing.T) {
		rep := run("collude-lazy")
		for _, i := range []int{2, 3} {
			o := &rep.Tasks[0].Outcomes[i]
			o.Paid, o.Rejected = true, false // quality stays 0: a paid failing stream
		}
		expect(t, rep, adversary.ErrAuditBypassed)
	})
	t.Run("underpaid honest rational worker", func(t *testing.T) {
		rep := run("rational-dominant")
		rep.Tasks[0].Outcomes[2].Paid = false
		expect(t, rep, adversary.ErrHonestUnderpaid)
	})
	t.Run("sybil double-claim", func(t *testing.T) {
		rep := run("sybil-lazy")
		for _, i := range []int{2, 3, 4} {
			o := &rep.Tasks[0].Outcomes[i]
			o.Paid, o.Rejected = true, false
		}
		expect(t, rep, adversary.ErrSybilDoubleClaim)
	})
	t.Run("diverging shared stream", func(t *testing.T) {
		rep := run("collude-lazy")
		o := &rep.Tasks[0].Outcomes[3]
		forged := append([]int64(nil), o.Answers...)
		forged[0]++
		o.Answers = forged
		expect(t, rep, adversary.ErrStreamDiverged)
	})
	t.Run("split verdict", func(t *testing.T) {
		rep := run("collude-lazy")
		o := &rep.Tasks[0].Outcomes[2]
		o.Paid, o.Rejected = true, false
		expect(t, rep, adversary.ErrSplitVerdict)
	})
	t.Run("rational deviation", func(t *testing.T) {
		rep := run("rational-dominant")
		o := &rep.Tasks[0].Outcomes[2]
		o.Answers = nil // the engine chose honest effort but "never committed"
		expect(t, rep, adversary.ErrRationalDeviated)
	})
	t.Run("malformed econ spec", func(t *testing.T) {
		rep := run("rational-dominant")
		rep.Tasks[0].Econ = &adversary.EconSpec{
			Rational: map[int]protocol.RationalProfile{99: {Accuracy: 1}},
		}
		expect(t, rep, adversary.ErrEconSpec)
	})
}

// TestEconSchedulerSweep crosses every economic scenario with the hostile
// schedulers (reorder, per-worker censorship, reveal boundary-delay) at
// sequential and saturating parallelism: invariants must hold on both
// harness paths and the batch market and streaming service must stay
// byte-identical.
func TestEconSchedulerSweep(t *testing.T) {
	schedulers := []struct {
		name string
		make func(seed int64, workers, requesters []chain.Address) chain.Scheduler
	}{
		{"reorder", func(int64, []chain.Address, []chain.Address) chain.Scheduler {
			return chain.ReorderScheduler{}
		}},
		{"censor-worker", func(_ int64, workers, _ []chain.Address) chain.Scheduler {
			return chain.CensorScheduler{Victims: map[chain.Address]bool{workers[0]: true}}
		}},
		{"boundary-reveal", func(int64, []chain.Address, []chain.Address) chain.Scheduler {
			return chain.MethodDelayScheduler{Methods: map[string]bool{contract.MethodReveal: true}}
		}},
	}
	for _, s := range econScenarios(t) {
		for _, sched := range schedulers {
			s, sched := s, sched
			t.Run(s.Name+"/"+sched.name, func(t *testing.T) {
				t.Parallel()
				s.NewScheduler = sched.make
				for _, par := range []int{1, 0} {
					mkt, err := s.RunMarket(2, opts(par))
					if err != nil {
						t.Fatal(err)
					}
					if err := mkt.CheckInvariants(); err != nil {
						t.Fatalf("market parallelism %d: %v", par, err)
					}
					str, err := s.RunStream(2, opts(par))
					if err != nil {
						t.Fatal(err)
					}
					if err := str.CheckInvariants(); err != nil {
						t.Fatalf("stream parallelism %d: %v", par, err)
					}
					if fingerprint(mkt) != fingerprint(str) {
						t.Fatalf("market and stream transcripts diverge at parallelism %d", par)
					}
				}
				sim, err := s.RunSim(opts(0))
				if err != nil {
					t.Fatal(err)
				}
				if err := sim.CheckInvariants(); err != nil {
					t.Fatalf("sim: %v", err)
				}
			})
		}
	}
}

// TestGoldenFingerprintEcon pins the complete observable transcript of the
// economic scenarios co-located on one shared chain against a committed
// golden file — any determinism break in the rational engine (a decision
// made at a different observation point, an rng drawn in a new order)
// surfaces as a one-run diff instead of a cross-platform flake.
func TestGoldenFingerprintEcon(t *testing.T) {
	rep, err := adversary.RunMatrix(econScenarios(t), opts(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_econ.txt", "econ matrix", fingerprint(rep))
}
