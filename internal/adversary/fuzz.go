package adversary

// Property-based scenario generation: GenerateSpec derives a random VALID
// adversarial scenario — worker lineup mix (honest, rational, collusion
// ring, sybil swarm, byzantine attackers), requester policy, network
// scheduler, reward regime, and execution knobs — from one DRBG seed. The
// companion fuzz target (FuzzScenario in fuzz_test.go) runs each generated
// scenario through the batch market, the streaming service and the
// single-task sim, asserts CheckInvariants on every path plus cross-harness
// transcript equality, and shrinks a failing spec toward a minimal lineup
// with ShrinkSpec before reporting it.
//
// The generator never emits a spec whose outcome is unpredictable: every
// byzantine model it picks settles deterministically under every scheduler
// it picks (the boundary-racing LateCommitter and the slot-burning
// CopyPaster are catalogue-only for that reason), and the expected
// settlement is computed from the spec itself — a starved quota, a
// question-withholding requester, or a rational worker whose utility
// calculus says abstain all force cancellation; anything else finalizes.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"

	"dragoon/internal/chain"
	"dragoon/internal/contract"
	"dragoon/internal/drbg"
	"dragoon/internal/group"
	"dragoon/internal/incentive"
	"dragoon/internal/ledger"
	opt "dragoon/internal/opts"
	"dragoon/internal/protocol"
	"dragoon/internal/task"
	"dragoon/internal/worker"
)

// Generator code ranges (inclusive upper bounds live in normalize).
const (
	// Byzantine model codes.
	byzGoldenWrong = iota
	byzOutOfRange
	byzNoReveal
	byzGarbledReveal
	byzReplayReveal
	byzEquivocate
	numByzKinds
)

// Scheduler codes.
const (
	schedFIFO = iota
	schedRushing
	schedBoundedDelay
	schedReorder
	schedCensorWorker
	schedBoundaryReveal
	schedRandom
	numSchedKinds
)

// Rational profile codes.
const (
	ratNone     = iota
	ratDiligent // effort 20: honest at the generous reward
	ratLazy     // effort 400: guessing at the generous reward
	numRatKinds
)

// fuzzPolicies is the requester-policy palette, indexed by GenSpec.Policy.
var fuzzPolicies = []protocol.RequesterPolicy{
	protocol.PolicyHonest,
	protocol.PolicyFalseReport,
	protocol.PolicyGarbledProof,
	protocol.PolicySilent,
	protocol.PolicyNoGolden,
	protocol.PolicyPrematureCancel,
	protocol.PolicyWithholdQuestions,
}

// GenSpec is a compact, fully-normalized description of one generated
// adversarial scenario. All fields are small integers so a failing spec
// shrinks mechanically (see ShrinkSpec) and prints readably.
type GenSpec struct {
	// Seed drives the run's randomness (task generation, model rngs,
	// scheduler rngs).
	Seed int64
	// HonestN is the count of perfect ground-truth workers (≥1 always).
	HonestN int
	// Rational selects the rational worker profile (ratNone/ratDiligent/
	// ratLazy).
	Rational int
	// RingN is the collusion-ring size (0 or ≥2).
	RingN int
	// SybilN is the sybil-swarm size (0 or ≥2).
	SybilN int
	// Byz lists byzantine model codes appended to the lineup (≤2).
	Byz []int
	// Starve adds that many never-filled quota slots, forcing cancellation.
	Starve int
	// Policy indexes fuzzPolicies.
	Policy int
	// Scheduler is the network-adversary code.
	Scheduler int
	// Stingy posts a reward below every strategy's break-even instead of
	// the generous catalogue budget.
	Stingy bool
	// Parallelism, Batch, Exec are the execution knobs (see opts.Options).
	Parallelism, Batch, Exec int
}

// GenerateSpec derives a normalized random scenario spec from one seed.
// Equal seeds yield equal specs.
func GenerateSpec(seed int64) GenSpec {
	var b [8]byte
	io.ReadFull(drbg.New(seed, "adversary-fuzz"), b[:])
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(b[:]))))
	spec := GenSpec{
		Seed:      seed,
		HonestN:   1 + rng.Intn(2),
		Rational:  rng.Intn(numRatKinds),
		Policy:    rng.Intn(len(fuzzPolicies)),
		Scheduler: rng.Intn(numSchedKinds),
		Stingy:    rng.Intn(4) == 0,
		Batch:     rng.Intn(3) - 1,
		Exec:      rng.Intn(3) - 1,
	}
	if rng.Intn(3) == 0 {
		spec.RingN = 2
	}
	if rng.Intn(3) == 0 {
		spec.SybilN = 2 + rng.Intn(2)
	}
	for n := rng.Intn(3); n > 0; n-- {
		spec.Byz = append(spec.Byz, rng.Intn(numByzKinds))
	}
	if rng.Intn(6) == 0 {
		spec.Starve = 1
	}
	if rng.Intn(2) == 0 {
		spec.Parallelism = 1
	}
	spec.normalize()
	return spec
}

// normalize clamps a spec into the valid, predictable envelope. It is
// idempotent and applied both after generation and after every shrink
// mutation, so every spec that reaches a harness is well-formed.
func (g *GenSpec) normalize() {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	g.HonestN = clamp(g.HonestN, 1, 3)
	g.Rational = clamp(g.Rational, 0, numRatKinds-1)
	g.RingN = clamp(g.RingN, 0, 3)
	if g.RingN == 1 {
		g.RingN = 2 // a one-member "ring" is just a worker
	}
	g.SybilN = clamp(g.SybilN, 0, 3)
	if g.SybilN == 1 {
		g.SybilN = 2
	}
	if len(g.Byz) > 2 {
		g.Byz = g.Byz[:2]
	}
	for i := range g.Byz {
		g.Byz[i] = clamp(g.Byz[i], 0, numByzKinds-1)
	}
	g.Starve = clamp(g.Starve, 0, 1)
	g.Policy = clamp(g.Policy, 0, len(fuzzPolicies)-1)
	g.Scheduler = clamp(g.Scheduler, 0, numSchedKinds-1)
	g.Parallelism = clamp(g.Parallelism, 0, 1)
	g.Batch = clamp(g.Batch, -1, 1)
	g.Exec = clamp(g.Exec, -1, 1)
	// A question-withholding requester starves every worker of content, so
	// a rational worker would decide to play yet never commit — outside the
	// deviation invariant's model. Drop the rational head there.
	if fuzzPolicies[g.Policy] == protocol.PolicyWithholdQuestions {
		g.Rational = ratNone
	}
}

// lineupSize is the number of enrolled workers the spec produces.
func (g GenSpec) lineupSize() int {
	n := g.HonestN + g.RingN + g.SybilN + len(g.Byz)
	if g.Rational != ratNone {
		n++
	}
	return n
}

// quota is the contract quota K: every enrolled worker gets a slot, plus
// Starve slots nobody will ever fill.
func (g GenSpec) quota() int { return g.lineupSize() + g.Starve }

// budget returns the posted reward pool: the generous catalogue budget, or
// a stingy pool paying each slot below every strategy's break-even.
func (g GenSpec) budget() ledger.Amount {
	if g.Stingy {
		return ledger.Amount(g.quota())*10 + 1
	}
	return defaultBudget
}

// rationalProfile returns the spec's rational worker profile.
func (g GenSpec) rationalProfile() protocol.RationalProfile {
	effort := 20.0
	if g.Rational == ratLazy {
		effort = 400
	}
	return protocol.RationalProfile{
		Accuracy:   1,
		EffortCost: effort,
		SubmitCost: 1,
		NumGolden:  numGolden,
	}
}

// rationalChoice computes the action the spec's rational worker will take
// at the posted terms — the same arithmetic the worker client runs.
func (g GenSpec) rationalChoice() incentive.Choice {
	if g.Rational == ratNone {
		return incentive.ChoiceAbstain
	}
	prof := g.rationalProfile()
	p := incentive.Params{
		NumGolden:  prof.NumGolden,
		Threshold:  threshold,
		RangeSize:  rangeSize,
		Reward:     float64(g.budget() / ledger.Amount(g.quota())),
		SubmitCost: prof.SubmitCost,
	}
	return incentive.Decide(p, prof.Accuracy, prof.EffortCost)
}

// expectCancel predicts the settlement: a starved quota, a withholding
// requester, or an abstaining rational worker leaves the quota unfilled.
func (g GenSpec) expectCancel() bool {
	if g.Starve > 0 || fuzzPolicies[g.Policy] == protocol.PolicyWithholdQuestions {
		return true
	}
	return g.Rational != ratNone && g.rationalChoice() == incentive.ChoiceAbstain
}

// byzModel materializes one byzantine lineup member.
func byzModel(code, i int, inst *task.Instance) worker.Model {
	name := fmt.Sprintf("byz%d", i)
	switch code {
	case byzGoldenWrong:
		return goldenWrongModel(name, inst)
	case byzOutOfRange:
		return worker.OutOfRange(name, inst.GroundTruth, 2, 99)
	case byzNoReveal:
		return worker.NoReveal(name, inst.GroundTruth)
	case byzGarbledReveal:
		return worker.GarbledRevealer(name, inst.GroundTruth)
	case byzReplayReveal:
		return worker.Replayer(name, inst.GroundTruth)
	default:
		return worker.Equivocator(name, inst.GroundTruth)
	}
}

// Scenario materializes the spec as a runnable adversarial scenario,
// economic declarations included. Lineup order: honest, rational, ring,
// sybils, byzantine.
func (g GenSpec) Scenario() Scenario {
	econ := econBaseline("fuzz-generous")
	if g.Stingy {
		econ.Regime = "fuzz-stingy"
	}
	next := g.HonestN
	if g.Rational != ratNone {
		econ.Rational = map[int]protocol.RationalProfile{next: g.rationalProfile()}
		next++
	}
	if g.RingN > 0 {
		econ.Coalition = indicesFrom(next, g.RingN)
		next += g.RingN
	}
	if g.SybilN > 0 {
		econ.Sybils = map[string][]int{"syb": indicesFrom(next, g.SybilN)}
		econ.SybilEffort = map[string]float64{"syb": 0}
	}
	s := Scenario{
		Name:         fmt.Sprintf("fuzz-%d", g.Seed),
		Description:  "generated scenario (see GenSpec)",
		Quota:        g.quota(),
		Honest:       indices(g.HonestN),
		Policy:       fuzzPolicies[g.Policy],
		Budget:       0,
		ExpectCancel: g.expectCancel(),
		Econ:         econ,
		NewScheduler: schedulerFactory(g.Scheduler),
	}
	if g.Stingy {
		s.Budget = g.budget()
	}
	g2 := g // escape-free copy for the closure
	s.Lineup = func(inst *task.Instance, rng *rand.Rand) []worker.Model {
		models := perfect(inst, g2.HonestN)
		if g2.Rational != ratNone {
			models = append(models,
				worker.Rational("rat", inst.GroundTruth, g2.rationalProfile(), rng))
		}
		if g2.RingN > 0 {
			models = append(models,
				worker.CollusionRing("ring", g2.RingN, goldenWrongModel("ring", inst).Answers)...)
		}
		if g2.SybilN > 0 {
			models = append(models,
				worker.SybilSwarm("syb", g2.SybilN, goldenWrongModel("syb", inst).Answers)...)
		}
		for i, code := range g2.Byz {
			models = append(models, byzModel(code, i, inst))
		}
		return models
	}
	return s
}

// schedulerFactory maps a scheduler code to a Scenario.NewScheduler hook
// (nil for honest FIFO).
func schedulerFactory(code int) func(int64, []chain.Address, []chain.Address) chain.Scheduler {
	switch code {
	case schedRushing:
		return func(int64, []chain.Address, []chain.Address) chain.Scheduler {
			return chain.RushingScheduler{}
		}
	case schedBoundedDelay:
		return func(int64, []chain.Address, []chain.Address) chain.Scheduler {
			return chain.BoundedDelayScheduler{}
		}
	case schedReorder:
		return func(int64, []chain.Address, []chain.Address) chain.Scheduler {
			return chain.ReorderScheduler{}
		}
	case schedCensorWorker:
		return func(_ int64, workers, _ []chain.Address) chain.Scheduler {
			return chain.CensorScheduler{Victims: map[chain.Address]bool{workers[0]: true}}
		}
	case schedBoundaryReveal:
		return func(int64, []chain.Address, []chain.Address) chain.Scheduler {
			return chain.MethodDelayScheduler{Methods: map[string]bool{contract.MethodReveal: true}}
		}
	case schedRandom:
		return func(seed int64, _, _ []chain.Address) chain.Scheduler {
			return &chain.RandomScheduler{
				Rng:              rand.New(rand.NewSource(seed ^ 0x5CE)),
				DelayProbability: 0.25,
			}
		}
	default:
		return nil
	}
}

// Options materializes the spec's run options on the given crypto backend.
func (g GenSpec) Options(grp group.Group) Options {
	return Options{
		Group:         grp,
		Seed:          g.Seed,
		WorkerBalance: 5,
		Options: opt.Options{
			Parallelism:  g.Parallelism,
			BatchVerify:  g.Batch,
			ParallelExec: g.Exec,
		},
	}
}

// indicesFrom returns [start, start+1, ..., start+n-1].
func indicesFrom(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}

// ShrinkSpec greedily minimizes a failing spec: it tries one simplifying
// mutation at a time — dropping byzantine members, dissolving the ring and
// the swarm, removing the rational head, un-starving the quota, reverting
// policy, scheduler and reward regime to honest defaults, and zeroing the
// execution knobs — keeping each mutation only if fails still
// holds, until a full pass changes nothing or budget mutations were tested.
// The result is the minimal still-failing neighbour, the right thing to
// print in a fuzz failure.
func ShrinkSpec(spec GenSpec, fails func(GenSpec) bool, budget int) GenSpec {
	mutations := []func(*GenSpec){
		func(g *GenSpec) { g.Byz = nil },
		func(g *GenSpec) {
			if len(g.Byz) > 0 {
				g.Byz = g.Byz[:len(g.Byz)-1]
			}
		},
		func(g *GenSpec) { g.RingN = 0 },
		func(g *GenSpec) { g.SybilN = 0 },
		func(g *GenSpec) { g.Rational = ratNone },
		func(g *GenSpec) { g.Starve = 0 },
		func(g *GenSpec) { g.Policy = 0 },
		func(g *GenSpec) { g.Scheduler = schedFIFO },
		func(g *GenSpec) { g.Stingy = false },
		func(g *GenSpec) { g.Parallelism = 0 },
		func(g *GenSpec) { g.Batch = 0 },
		func(g *GenSpec) { g.Exec = 0 },
		func(g *GenSpec) { g.HonestN = 1 },
	}
	for changed, spent := true, 0; changed && spent < budget; {
		changed = false
		for _, mutate := range mutations {
			if spent >= budget {
				break
			}
			cand := spec
			cand.Byz = append([]int(nil), spec.Byz...)
			mutate(&cand)
			cand.normalize()
			if cand.equal(spec) {
				continue
			}
			spent++
			if fails(cand) {
				spec = cand
				changed = true
			}
		}
	}
	return spec
}

// equal compares two specs field by field.
func (g GenSpec) equal(o GenSpec) bool {
	if g.Seed != o.Seed || g.HonestN != o.HonestN || g.Rational != o.Rational ||
		g.RingN != o.RingN || g.SybilN != o.SybilN || g.Starve != o.Starve ||
		g.Policy != o.Policy || g.Scheduler != o.Scheduler || g.Stingy != o.Stingy ||
		g.Parallelism != o.Parallelism ||
		g.Batch != o.Batch || g.Exec != o.Exec || len(g.Byz) != len(o.Byz) {
		return false
	}
	for i := range g.Byz {
		if g.Byz[i] != o.Byz[i] {
			return false
		}
	}
	return true
}
