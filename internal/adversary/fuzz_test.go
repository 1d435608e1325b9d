package adversary_test

import (
	"fmt"
	"testing"

	"dragoon/internal/adversary"
	"dragoon/internal/group"
)

// corpusSeeds is FuzzScenario's seed corpus. Together the generated specs
// cover every requester policy, every scheduler, every byzantine model,
// every rational profile (including the stingy-reward abstention), a
// collusion ring, a sybil swarm, a starved quota, and every execution
// knob — TestFuzzCorpusCoverage proves it and fails if the
// generator drifts.
var corpusSeeds = []int64{1, 2, 3, 6, 8, 9, 12, 16, 17, 19, 25, 26}

// runSpec executes one generated scenario down every harness path and
// returns the first violation: market-path invariants, stream-path
// invariants plus byte-for-byte transcript equality against the market,
// and sim-path invariants.
func runSpec(spec adversary.GenSpec) error {
	s := spec.Scenario()
	o := spec.Options(group.TestSchnorr())

	mkt, err := s.RunMarket(1, o)
	if err != nil {
		return fmt.Errorf("market: %w", err)
	}
	if err := mkt.CheckInvariants(); err != nil {
		return fmt.Errorf("market: %w", err)
	}
	str, err := s.RunStream(1, o)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if err := str.CheckInvariants(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if fingerprint(mkt) != fingerprint(str) {
		return fmt.Errorf("market and stream transcripts diverge")
	}
	sim, err := s.RunSim(o)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := sim.CheckInvariants(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// FuzzScenario is the whole-protocol property fuzz: any seed must generate
// a scenario that satisfies every security and economic invariant on every
// harness path, with the batch market and the streaming service producing
// byte-identical transcripts. A failure is shrunk to its minimal
// still-failing spec before reporting.
func FuzzScenario(f *testing.F) {
	for _, seed := range corpusSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		spec := adversary.GenerateSpec(seed)
		err := runSpec(spec)
		if err == nil {
			return
		}
		min := adversary.ShrinkSpec(spec, func(g adversary.GenSpec) bool {
			return runSpec(g) != nil
		}, 40)
		t.Fatalf("generated scenario violates invariants: %v\nfull spec: %+v\nminimal failing spec: %+v\nminimal error: %v",
			err, spec, min, runSpec(min))
	})
}

// TestFuzzCorpusCoverage pins the seed corpus's reach: the union of the
// generated specs must exercise every policy, scheduler, byzantine model
// and rational profile, plus each structural feature, so the corpus stays
// a complete smoke of the scenario space even if the generator's sampling
// changes.
func TestFuzzCorpusCoverage(t *testing.T) {
	covered := map[string]bool{}
	for _, seed := range corpusSeeds {
		g := adversary.GenerateSpec(seed)
		covered[fmt.Sprintf("policy-%d", g.Policy)] = true
		covered[fmt.Sprintf("sched-%d", g.Scheduler)] = true
		covered[fmt.Sprintf("rational-%d", g.Rational)] = true
		for _, b := range g.Byz {
			covered[fmt.Sprintf("byz-%d", b)] = true
		}
		if g.RingN > 0 {
			covered["ring"] = true
		}
		if g.SybilN > 0 {
			covered["sybil"] = true
		}
		if g.Starve > 0 {
			covered["starve"] = true
		}
		if g.Stingy {
			covered["stingy"] = true
			if g.Rational != 0 {
				covered["rational-abstains"] = true
			}
		}
		if g.Parallelism == 1 {
			covered["parallel"] = true
		}
		if g.Batch == 1 {
			covered["batch-verify"] = true
		}
		if g.Exec == 1 {
			covered["parallel-exec"] = true
		}
	}
	var want []string
	for i := 0; i < 7; i++ {
		want = append(want, fmt.Sprintf("policy-%d", i), fmt.Sprintf("sched-%d", i))
	}
	for i := 0; i < 6; i++ {
		want = append(want, fmt.Sprintf("byz-%d", i))
	}
	for i := 0; i < 3; i++ {
		want = append(want, fmt.Sprintf("rational-%d", i))
	}
	want = append(want, "ring", "sybil", "starve", "stingy", "rational-abstains",
		"parallel", "batch-verify", "parallel-exec")
	for _, w := range want {
		if !covered[w] {
			t.Errorf("seed corpus never generates %s", w)
		}
	}
}

// TestShrinkSpec checks the shrinker strips everything irrelevant to a
// failure predicate and keeps what triggers it.
func TestShrinkSpec(t *testing.T) {
	// Find a busy generated spec that includes a ring.
	var spec adversary.GenSpec
	for seed := int64(1); ; seed++ {
		spec = adversary.GenerateSpec(seed)
		if spec.RingN > 0 && (len(spec.Byz) > 0 || spec.SybilN > 0) && spec.Scheduler != 0 {
			break
		}
	}
	min := adversary.ShrinkSpec(spec, func(g adversary.GenSpec) bool {
		return g.RingN > 0 // "fails" whenever a ring is present
	}, 200)
	if min.RingN == 0 {
		t.Fatalf("shrinker lost the failure-triggering ring: %+v", min)
	}
	if min.SybilN != 0 || len(min.Byz) != 0 || min.Rational != 0 || min.Starve != 0 ||
		min.Policy != 0 || min.Scheduler != 0 || min.Stingy ||
		min.HonestN != 1 || min.Parallelism != 0 || min.Batch != 0 || min.Exec != 0 {
		t.Fatalf("shrinker kept irrelevant structure: %+v", min)
	}
	// The shrunk spec must still be valid and runnable end to end.
	if err := runSpec(min); err != nil {
		t.Fatalf("minimal spec does not run cleanly: %v", err)
	}
}
