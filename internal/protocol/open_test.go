package protocol_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"dragoon/internal/chain"
	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/protocol"
	"dragoon/internal/swarm"
	"dragoon/internal/task"
)

// mulCounter counts variable-base ScalarMul calls while on is set. The
// requester decrypts on the work pool, so the tally is atomic.
type mulCounter struct {
	group.Group
	on   atomic.Bool
	muls atomic.Int64
}

func (c *mulCounter) ScalarMul(a group.Element, k *big.Int) group.Element {
	if c.on.Load() {
		c.muls.Add(1)
	}
	return c.Group.ScalarMul(a, k)
}

// hitRun is one task driven by hand through every phase: a requester and
// one worker per answer vector over a fresh chain.
type hitRun struct {
	ch      *chain.Chain
	req     *protocol.Requester
	cfg     protocol.RequesterConfig
	answers [][]int64
}

// newHITInstance is a 12-question task over range 4 with 3 golden
// standards, for K workers.
func newHITInstance(t *testing.T, workers int) *task.Instance {
	t.Helper()
	inst, err := task.Generate(task.GenerateParams{
		ID: "open", N: 12, RangeSize: 4, NumGolden: 3,
		Workers: workers, Threshold: 2, Budget: 300,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// runHIT launches the task and steps it until it settles, passing every
// requester call through call (which must invoke its argument).
func runHIT(t *testing.T, g group.Group, inst *task.Instance, policy protocol.RequesterPolicy,
	answers [][]int64, call func(func() error) error) *hitRun {
	t.Helper()
	rnd := drbg.New(21, "requester")
	sk, err := elgamal.KeyGen(g, rnd)
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.New()
	led.Mint("requester", 1000)
	ch := chain.New(led, nil)
	store := swarm.New()
	cfg := protocol.RequesterConfig{
		Addr: "requester", Chain: ch, Store: store, Instance: inst,
		Policy: policy, Group: g, Key: sk, Rand: rnd,
	}
	req, err := protocol.NewRequester(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var workers []*protocol.Worker
	for i, a := range answers {
		w, err := protocol.NewWorker(protocol.WorkerConfig{
			Addr: chain.Address(fmt.Sprintf("w%d", i)), Chain: ch, Store: store, Group: g,
			ContractID: req.ContractID(), Rand: drbg.New(21, fmt.Sprintf("worker-%d", i)),
			AnswerFn: func([]task.Question, int64) []int64 { return slices.Clone(a) },
		})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	if err := req.Launch(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		if err := call(req.Step); err != nil {
			t.Fatalf("round %d: requester: %v", round, err)
		}
		for _, w := range workers {
			if err := w.Step(); err != nil {
				t.Fatalf("round %d: %s: %v", round, w.Addr, err)
			}
		}
		if _, err := ch.MineRound(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range ch.EventsFor(req.ContractID()) {
			if ev.Name == "finalized" {
				return &hitRun{ch: ch, req: req, cfg: cfg, answers: answers}
			}
		}
	}
	t.Fatal("task did not finalize in 40 rounds")
	return nil
}

// want is the harvest the requester must deliver: every revealed answer
// vector, −1 marking an out-of-range answer.
func (h *hitRun) want(rangeSize int64) map[chain.Address][]int64 {
	out := make(map[chain.Address][]int64, len(h.answers))
	for i, a := range h.answers {
		v := slices.Clone(a)
		for q := range v {
			if v[q] < 0 || v[q] >= rangeSize {
				v[q] = -1
			}
		}
		out[chain.Address(fmt.Sprintf("w%d", i))] = v
	}
	return out
}

// mixedAnswers: a worker matching the ground truth (paid), one with every
// golden answer wrong (rejected by a quality proof) and one with an
// out-of-range answer (rejected by a VPKE opening).
func mixedAnswers(inst *task.Instance) [][]int64 {
	truth := slices.Clone(inst.GroundTruth)
	wrong := slices.Clone(inst.GroundTruth)
	for _, gi := range inst.Golden.Indices {
		wrong[gi] = (wrong[gi] + 1) % inst.Task.RangeSize
	}
	outrange := slices.Clone(inst.GroundTruth)
	for q := range outrange {
		if !slices.Contains(inst.Golden.Indices, q) {
			outrange[q] = 9
			break
		}
	}
	return [][]int64{truth, wrong, outrange}
}

func direct(f func() error) error { return f() }

// TestRequesterDecryptsEachCiphertextOnce: over evaluation plus harvest of
// a task with K revealed workers and N questions, the requester performs
// exactly one variable-base mul per ciphertext (its decryption) plus one
// per wrong golden answer (c1^x of the VPKE proof that reveals it). An
// honest task costs K·N, where deciding, proving and harvesting
// separately cost 2·K·N + 2·K·|G|; with wrong golden answers it costs
// K·N + #wrong, whether the worker still qualifies (one wrong) or is
// rejected (every golden answer wrong).
func TestRequesterDecryptsEachCiphertextOnce(t *testing.T) {
	const k = 3
	inst := newHITInstance(t, k)
	for _, tc := range []struct {
		name  string
		wrong [k]int // golden answers each worker gets wrong
	}{
		{"honest", [k]int{0, 0, 0}},
		{"wrong golden answers", [k]int{0, 1, len(inst.Golden.Indices)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &mulCounter{Group: group.TestSchnorr()}
			answers := make([][]int64, k)
			wrong := 0
			for i := range answers {
				answers[i] = slices.Clone(inst.GroundTruth)
				for _, gi := range inst.Golden.Indices[:tc.wrong[i]] {
					answers[i][gi] = (answers[i][gi] + 1) % inst.Task.RangeSize
				}
				wrong += tc.wrong[i]
			}
			counted := func(f func() error) error {
				c.on.Store(true)
				defer c.on.Store(false)
				return f()
			}
			h := runHIT(t, c, inst, protocol.PolicyHonest, answers, counted)
			var got map[chain.Address][]int64
			if err := counted(func() (err error) { got, err = h.req.Answers(); return err }); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, h.want(inst.Task.RangeSize)) {
				t.Fatalf("harvest %v, want %v", got, h.want(inst.Task.RangeSize))
			}
			if want := int64(k*inst.Task.N() + wrong); c.muls.Load() != want {
				t.Fatalf("requester ran %d variable-base muls, want K·N + #wrong = %d", c.muls.Load(), want)
			}
		})
	}
}

// TestAnswersIndependentOfEvaluation: the harvest is the same whether
// evaluation opened the submissions first (honest, garbled-proof) or not
// (silent, no-golden, false-report, or a requester rebuilt after
// settlement), and the caller owns the slices it gets.
func TestAnswersIndependentOfEvaluation(t *testing.T) {
	g := group.TestSchnorr()
	inst := newHITInstance(t, 3)
	answers := mixedAnswers(inst)
	for _, policy := range []protocol.RequesterPolicy{
		protocol.PolicyHonest, protocol.PolicyGarbledProof, protocol.PolicySilent,
		protocol.PolicyNoGolden, protocol.PolicyFalseReport,
	} {
		h := runHIT(t, g, inst, policy, answers, direct)
		if policy == protocol.PolicyHonest {
			rejected := 0
			for _, ev := range h.ch.EventsFor(h.req.ContractID()) {
				if ev.Name == "rejected" {
					rejected++
				}
			}
			if rejected != 2 {
				t.Fatalf("honest requester rejected %d workers, want the quality and out-of-range ones", rejected)
			}
		}
		want := h.want(inst.Task.RangeSize)
		rebuilt, err := protocol.NewRequester(h.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, req := range map[string]*protocol.Requester{"stepped": h.req, "rebuilt": rebuilt} {
			got, err := req.Answers()
			if err != nil {
				t.Fatalf("policy %d, %s: %v", policy, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("policy %d, %s: harvest %v, want %v", policy, name, got, want)
			}
			for _, v := range got {
				v[0] = 42
			}
			if again, _ := req.Answers(); !reflect.DeepEqual(again, want) {
				t.Fatalf("policy %d, %s: mutating one harvest changed the next: %v", policy, name, again)
			}
		}
	}
}

// TestRequesterPoolDecryption runs evaluation and harvest with the
// requester's decryption spread over several pool workers; under -race it
// pins that the spans write disjoint slots, and the harvest must not
// depend on the pool size.
func TestRequesterPoolDecryption(t *testing.T) {
	inst := newHITInstance(t, 3)
	answers := mixedAnswers(inst)
	for _, workers := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(workers)
		h := runHIT(t, group.TestSchnorr(), inst, protocol.PolicyHonest, answers, direct)
		got, err := h.req.Answers()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, h.want(inst.Task.RangeSize)) {
			t.Fatalf("workers=%d: harvest %v, want %v", workers, got, h.want(inst.Task.RangeSize))
		}
	}
}
