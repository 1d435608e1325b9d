package adversary

import (
	"math/rand"

	"dragoon/internal/chain"
	"dragoon/internal/contract"
	"dragoon/internal/protocol"
	"dragoon/internal/task"
	"dragoon/internal/worker"
)

// goldenWrongModel answers every question correctly EXCEPT the golden
// standards — quality 0, the structural way to force a PoQoEA rejection.
func goldenWrongModel(name string, inst *task.Instance) worker.Model {
	return worker.Model{
		Name:     name,
		Strategy: protocol.StrategyHonest,
		Answers: func(qs []task.Question, rangeSize int64) []int64 {
			out := make([]int64, len(qs))
			copy(out, inst.GroundTruth)
			for _, gi := range inst.Golden.Indices {
				out[gi] = (out[gi] + 1) % rangeSize
			}
			return out
		},
	}
}

// perfect returns n honest ground-truth workers named w0..w(n-1).
func perfect(inst *task.Instance, n int) []worker.Model {
	models := make([]worker.Model, n)
	for i := range models {
		models[i] = worker.Perfect(wname(i), inst.GroundTruth)
	}
	return models
}

func wname(i int) string { return string(rune('a'+i)) + "h" }

// indices returns [0, 1, ..., n-1].
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// twoHonestPlus builds the common lineup of two honest workers plus one
// scenario-specific adversary.
func twoHonestPlus(inst *task.Instance, adv worker.Model) []worker.Model {
	return append(perfect(inst, 2), adv)
}

// econProfile is the economic scenarios' standard rational profile: exact
// ground-truth knowledge, unit submission cost, and the true golden count
// (the profile models an informed insider; the audit shape is still what
// decides it).
func econProfile(effort float64) protocol.RationalProfile {
	return protocol.RationalProfile{
		Accuracy:   1,
		EffortCost: effort,
		SubmitCost: 1,
		NumGolden:  numGolden,
	}
}

// econBaseline fills the EconSpec fields every economic scenario shares:
// the honest-baseline worker the profit ceilings compare against.
func econBaseline(regime string) *EconSpec {
	return &EconSpec{
		Regime:         regime,
		SubmitCost:     1,
		HonestAccuracy: 0.95,
		HonestEffort:   20,
	}
}

// econSpec declares rational lineup members on the shared baseline.
func econSpec(regime string, rational map[int]protocol.RationalProfile) *EconSpec {
	e := econBaseline(regime)
	e.Rational = rational
	return e
}

// ringSpec declares a zero-effort collusion ring on the shared baseline.
func ringSpec(regime string, members []int) *EconSpec {
	e := econBaseline(regime)
	e.Coalition = members
	e.CoalitionEffort = 0
	return e
}

// sybilSpec declares one zero-effort sybil principal on the shared baseline.
func sybilSpec(regime, principal string, members []int) *EconSpec {
	e := econBaseline(regime)
	e.Sybils = map[string][]int{principal: members}
	e.SybilEffort = map[string]float64{principal: 0}
	return e
}

// Matrix returns the standard adversarial scenario catalogue: byzantine
// workers attacking the commitment and reveal machinery, malicious
// requesters attacking the payment logic, network schedulers attacking the
// timing windows, and combinations. Every scenario must pass CheckInvariants
// on both harnesses.
func Matrix() []Scenario {
	return []Scenario{
		{
			Name:        "baseline-honest",
			Description: "all parties honest: everyone commits, reveals and is paid",
			Quota:       3,
			Lineup:      func(inst *task.Instance, _ *rand.Rand) []worker.Model { return perfect(inst, 3) },
			Honest:      indices(3),
		},
		{
			Name:        "golden-wrong-rejected",
			Description: "a worker answering every golden standard wrongly is rejected by a valid PoQoEA proof; the honest majority is paid",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return twoHonestPlus(inst, goldenWrongModel("gw", inst))
			},
			Honest: []int{0, 1},
		},
		{
			Name:        "out-of-range",
			Description: "a worker smuggling an out-of-range answer is rejected by a VPKE opening",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return twoHonestPlus(inst, worker.OutOfRange("oor", inst.GroundTruth, 2, 99))
			},
			Honest: []int{0, 1},
		},
		{
			Name:        "no-reveal",
			Description: "a worker who never opens its commitment forfeits; its share returns to the requester",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return twoHonestPlus(inst, worker.NoReveal("mute", inst.GroundTruth))
			},
			Honest: []int{0, 1},
		},
		{
			Name:        "copy-paste-rejected",
			Description: "a free-rider re-submits an observed commitment after the quota filled; the duplicate/late commit reverts and the honest quota is paid",
			Quota:       2,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return append(perfect(inst, 2), worker.CopyPaster("copycat"))
			},
			Honest: []int{0, 1},
		},
		{
			Name:        "copy-paste-starves",
			Description: "a free-rider burns the last quota slot on a duplicated commitment; the quota never fills, the task cancels, and nobody loses funds",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return append(perfect(inst, 2), worker.CopyPaster("copycat"))
			},
			Honest:       []int{0, 1},
			ExpectCancel: true,
		},
		{
			Name:        "garbled-reveal",
			Description: "a worker opens its commitment with a garbled ciphertext vector; the binding commitment rejects the opening and the worker forfeits",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return twoHonestPlus(inst, worker.GarbledRevealer("garbler", inst.GroundTruth))
			},
			Honest: []int{0, 1},
		},
		{
			Name:        "replayed-reveal",
			Description: "a worker replays another worker's reveal transcript; it cannot open its own commitment and the replay reverts",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return twoHonestPlus(inst, worker.Replayer("replayer", inst.GroundTruth))
			},
			Honest: []int{0, 1},
		},
		{
			Name:        "equivocator",
			Description: "a worker lands two different commitments in one round; the contract accepts exactly one and the kept opening matches it under FIFO",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return twoHonestPlus(inst, worker.Equivocator("equivocator", inst.GroundTruth))
			},
			Honest: []int{0, 1},
		},
		{
			Name:        "late-commit",
			Description: "a worker lands its commitment exactly on the commit-phase boundary; under an honest schedule it is accepted and paid",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return twoHonestPlus(inst, worker.LateCommitter("boundary", inst.GroundTruth))
			},
			Honest: indices(3),
		},
		{
			Name:        "false-report",
			Description: "the requester underclaims every worker's quality with no proof; the contract pays the workers in spite of her",
			Quota:       3,
			Lineup:      func(inst *task.Instance, _ *rand.Rand) []worker.Model { return perfect(inst, 3) },
			Honest:      indices(3),
			Policy:      protocol.PolicyFalseReport,
		},
		{
			Name:        "garbled-proof",
			Description: "the requester rejects with honestly-generated but byte-corrupted VPKE proofs; on-chain verification fails and every worker is paid",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return twoHonestPlus(inst, goldenWrongModel("gw", inst))
			},
			Honest: []int{0, 1},
			Policy: protocol.PolicyGarbledProof,
		},
		{
			Name:        "silent-requester",
			Description: "the requester sends no evaluation at all; the pay-by-default rule pays every revealed worker",
			Quota:       3,
			Lineup:      func(inst *task.Instance, _ *rand.Rand) []worker.Model { return perfect(inst, 3) },
			Honest:      indices(3),
			Policy:      protocol.PolicySilent,
		},
		{
			Name:        "no-golden",
			Description: "the requester refuses to open the golden-standard commitment; without it no rejection is possible and everyone revealed is paid",
			Quota:       3,
			Lineup:      func(inst *task.Instance, _ *rand.Rand) []worker.Model { return perfect(inst, 3) },
			Honest:      indices(3),
			Policy:      protocol.PolicyNoGolden,
		},
		{
			Name:        "premature-cancel",
			Description: "the requester hammers finalize from round one to claw back the deposit; every premature attempt reverts and the eventual settlement pays every revealed worker",
			Quota:       3,
			Lineup:      func(inst *task.Instance, _ *rand.Rand) []worker.Model { return perfect(inst, 3) },
			Honest:      indices(3),
			Policy:      protocol.PolicyPrematureCancel,
		},
		{
			Name:         "withheld-questions",
			Description:  "the requester publishes the digest but withholds the question content; workers refuse to commit blind, the quota never fills and the task cancels cleanly",
			Quota:        3,
			Lineup:       func(inst *task.Instance, _ *rand.Rand) []worker.Model { return perfect(inst, 3) },
			Honest:       indices(3),
			Policy:       protocol.PolicyWithholdQuestions,
			ExpectCancel: true,
		},
		{
			Name:        "rational-dominant",
			Description: "a rational utility-maximizer facing a solver-cleared reward computes honest effort as its best response, commits honestly and is paid",
			Quota:       3,
			Lineup: func(inst *task.Instance, rng *rand.Rand) []worker.Model {
				return append(perfect(inst, 2),
					worker.Rational("rat", inst.GroundTruth, econProfile(20), rng))
			},
			Honest: []int{0, 1},
			Econ:   econSpec("dominant", map[int]protocol.RationalProfile{2: econProfile(20)}),
		},
		{
			Name:        "rational-starved",
			Description: "a stingy reward below the dominant bound makes every action net-negative; the rational worker abstains, the quota never fills and the task cancels with full refund",
			Quota:       3,
			Budget:      31, // reward 31/3 = 10: below effort + submission cost
			Lineup: func(inst *task.Instance, rng *rand.Rand) []worker.Model {
				return append(perfect(inst, 2),
					worker.Rational("rat", inst.GroundTruth, econProfile(20), rng))
			},
			Honest:       []int{0, 1},
			ExpectCancel: true,
			Econ:         econSpec("stingy", map[int]protocol.RationalProfile{2: econProfile(20)}),
		},
		{
			Name:        "rational-freeride",
			Description: "effort priced above the reward turns the best response into zero-effort guessing; the guess stream faces the golden-standard audit like any bot",
			Quota:       3,
			Lineup: func(inst *task.Instance, rng *rand.Rand) []worker.Model {
				return append(perfect(inst, 2),
					worker.Rational("rat", inst.GroundTruth, econProfile(400), rng))
			},
			Honest: []int{0, 1},
			Econ:   econSpec("dominant", map[int]protocol.RationalProfile{2: econProfile(400)}),
		},
		{
			Name:        "collude-lazy",
			Description: "a two-head collusion ring shares one zero-effort golden-wrong stream; the audit grades the stream once, both heads are rejected together and the ring nets less than honest play",
			Quota:       4,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				ring := worker.CollusionRing("ring", 2, goldenWrongModel("ring", inst).Answers)
				return append(perfect(inst, 2), ring...)
			},
			Honest: []int{0, 1},
			Econ:   ringSpec("dominant", []int{2, 3}),
		},
		{
			Name:        "collude-stingy",
			Description: "the same effort-skipping ring under a reward so small even honest play nets nothing; the profit ceiling tightens to zero and the ring still ends under it",
			Quota:       4,
			Budget:      61, // reward 61/4 = 15: honest utility is negative
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				ring := worker.CollusionRing("ring", 2, goldenWrongModel("ring", inst).Answers)
				return append(perfect(inst, 2), ring...)
			},
			Honest: []int{0, 1},
			Econ:   ringSpec("stingy", []int{2, 3}),
		},
		{
			Name:        "sybil-lazy",
			Description: "one principal enrolls three chain addresses all submitting its single golden-wrong stream; every address pays its own submission cost and the shared stream's rejection voids them all at once",
			Quota:       5,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				swarm := worker.SybilSwarm("syb", 3, goldenWrongModel("syb", inst).Answers)
				return append(perfect(inst, 2), swarm...)
			},
			Honest: []int{0, 1},
			Econ:   sybilSpec("dominant", "syb", []int{2, 3, 4}),
		},
		{
			Name:        "sybil-stingy",
			Description: "the same three-address sybil under a stingy reward; multiplying identities multiplies only the costs, never the per-stream audit odds",
			Quota:       5,
			Budget:      41, // reward 41/5 = 8: below every strategy's break-even
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				swarm := worker.SybilSwarm("syb", 3, goldenWrongModel("syb", inst).Answers)
				return append(perfect(inst, 2), swarm...)
			},
			Honest: []int{0, 1},
			Econ:   sybilSpec("stingy", "syb", []int{2, 3, 4}),
		},
		{
			Name:        "rushing",
			Description: "the canonical strongest network adversary (reverse every round, delay every fresh tx); all protocol windows tolerate it",
			Quota:       3,
			Lineup:      func(inst *task.Instance, _ *rand.Rand) []worker.Model { return perfect(inst, 3) },
			Honest:      indices(3),
			NewScheduler: func(_ int64, _, _ []chain.Address) chain.Scheduler {
				return chain.RushingScheduler{}
			},
		},
		{
			Name:        "bounded-delay",
			Description: "every transaction delayed by exactly the synchrony bound; every window still admits every honest message",
			Quota:       3,
			Lineup:      func(inst *task.Instance, _ *rand.Rand) []worker.Model { return perfect(inst, 3) },
			Honest:      indices(3),
			NewScheduler: func(_ int64, _, _ []chain.Address) chain.Scheduler {
				return chain.BoundedDelayScheduler{}
			},
		},
		{
			Name:        "reorder",
			Description: "pure rushing (reverse execution order, no delay) while a golden-wrong worker is honestly rejected",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return twoHonestPlus(inst, goldenWrongModel("gw", inst))
			},
			Honest: []int{0, 1},
			NewScheduler: func(_ int64, _, _ []chain.Address) chain.Scheduler {
				return chain.ReorderScheduler{}
			},
		},
		{
			Name:        "equivocator-reordered",
			Description: "a reordering adversary decides the equivocator's double-commit race; whichever commitment wins, state stays consistent and the honest workers are paid",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return twoHonestPlus(inst, worker.Equivocator("equivocator", inst.GroundTruth))
			},
			Honest: []int{0, 1},
			NewScheduler: func(_ int64, _, _ []chain.Address) chain.Scheduler {
				return chain.ReorderScheduler{}
			},
		},
		{
			Name:        "censor-worker",
			Description: "per-worker censorship to the synchrony bound: every message of one honest worker lands a round late, and it is still paid",
			Quota:       3,
			Lineup:      func(inst *task.Instance, _ *rand.Rand) []worker.Model { return perfect(inst, 3) },
			Honest:      indices(3),
			NewScheduler: func(_ int64, workers, _ []chain.Address) chain.Scheduler {
				return chain.CensorScheduler{Victims: map[chain.Address]bool{workers[0]: true}}
			},
		},
		{
			Name:        "censor-requester",
			Description: "the requester's every message (publish, golden opening, evaluations, finalize) lands a round late; settlement still completes",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return twoHonestPlus(inst, goldenWrongModel("gw", inst))
			},
			Honest: []int{0, 1},
			NewScheduler: func(_ int64, _, requesters []chain.Address) chain.Scheduler {
				victims := make(map[chain.Address]bool, len(requesters))
				for _, r := range requesters {
					victims[r] = true
				}
				return chain.CensorScheduler{Victims: victims}
			},
		},
		{
			Name:        "boundary-reveal",
			Description: "phase-boundary targeting: every reveal is pushed to the last round of its window and still lands",
			Quota:       3,
			Lineup:      func(inst *task.Instance, _ *rand.Rand) []worker.Model { return perfect(inst, 3) },
			Honest:      indices(3),
			NewScheduler: func(_ int64, _, _ []chain.Address) chain.Scheduler {
				return chain.MethodDelayScheduler{Methods: map[string]bool{contract.MethodReveal: true}}
			},
		},
		{
			Name:        "boundary-evaluation",
			Description: "phase-boundary targeting of the requester: golden opening and evaluations squeezed to the very edge of the evaluation window; the rejection still lands",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return twoHonestPlus(inst, goldenWrongModel("gw", inst))
			},
			Honest: []int{0, 1},
			NewScheduler: func(_ int64, _, _ []chain.Address) chain.Scheduler {
				return chain.MethodDelayScheduler{Methods: map[string]bool{
					contract.MethodGolden:   true,
					contract.MethodEvaluate: true,
					contract.MethodOutrange: true,
				}}
			},
		},
		{
			Name:        "late-commit-starved",
			Description: "a uniform one-round delay pushes a boundary commit past the deadline; the quota never fills and the task cancels with full refund",
			Quota:       3,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return twoHonestPlus(inst, worker.LateCommitter("boundary", inst.GroundTruth))
			},
			Honest:       []int{0, 1},
			ExpectCancel: true,
			NewScheduler: func(_ int64, _, _ []chain.Address) chain.Scheduler {
				return chain.BoundedDelayScheduler{}
			},
		},
		{
			Name:        "random-chaos",
			Description: "a seeded random adversary permutes every round and delays a quarter of all traffic while byzantine workers attack; honest workers are still paid",
			Quota:       4,
			Lineup: func(inst *task.Instance, _ *rand.Rand) []worker.Model {
				return append(perfect(inst, 2),
					goldenWrongModel("gw", inst),
					worker.NoReveal("mute", inst.GroundTruth))
			},
			Honest: []int{0, 1},
			NewScheduler: func(seed int64, _, _ []chain.Address) chain.Scheduler {
				return &chain.RandomScheduler{
					Rng:              rand.New(rand.NewSource(seed ^ 0x5CE)),
					DelayProbability: 0.25,
				}
			},
		},
	}
}

// ParticipantMatrix filters Matrix down to the scenarios with no pinned
// network scheduler — the ones that can share one chain in RunMatrix.
func ParticipantMatrix() []Scenario {
	var out []Scenario
	for _, s := range Matrix() {
		if s.NewScheduler == nil {
			out = append(out, s)
		}
	}
	return out
}
