package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/market"
	"dragoon/internal/protocol"
	"dragoon/internal/task"
	"dragoon/internal/worker"
)

// workload is one closed-loop traffic shape. See README.md for why each
// exists and which layer it puts on top.
type workload struct {
	name string
	// Task shape (task.GenerateParams).
	n, golden, threshold int
	rangeSize            int64
	// Population: honest oracle workers, random bots, and workers that put
	// one out-of-range answer into an otherwise truthful submission.
	honest, bots, outrange int
	// sharedKey reuses one requester key pair for every task (§VI); when
	// false each task derives its own, the service default.
	sharedKey bool
	// batchVerify turns the market's round auditor on (Options.BatchVerify).
	batchVerify int
	// inflight is the closed loop's concurrency C.
	inflight int
}

var workloads = []workload{
	{
		name: "imagenet_honest",
		n:    106, golden: 6, threshold: 4, rangeSize: 2,
		honest:    4,
		sharedKey: true,
		inflight:  8,
	},
	{
		name: "spam_reject",
		n:    32, golden: 16, threshold: 12, rangeSize: 4,
		bots: 3, outrange: 1,
		sharedKey: true, batchVerify: 1,
		inflight: 8,
	},
	{
		name: "small_tasks_own_keys",
		n:    8, golden: 2, threshold: 1, rangeSize: 2,
		honest:   3,
		inflight: 32,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func (w workload) workers() int { return w.honest + w.bots + w.outrange }

// Randomness streams derived from the workload seed. Each consumer draws
// from its own stream: a bot seeded like the task generator would answer
// exactly the generated ground truth.
const (
	streamTasks uint64 = iota + 1
	streamBots
	streamOutrange
	streamKey
)

// subSeed derives the seed of stream s, member i, from the workload seed
// (a splitmix64 finalizer, so neighbouring inputs give unrelated seeds).
func subSeed(seed int64, s, i uint64) int64 {
	z := uint64(seed) ^ s*0x9E3779B97F4A7C15 ^ (i+1)*0xD1B54A32D192ED03
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

// oracle holds the ground truth of every task in flight. Simulated honest
// workers read it through the question text, which names the task: it is
// how a worker "knows" the right answer to a question it was shown.
type oracle struct {
	mu    sync.Mutex
	truth map[string][]int64
}

func newOracle() *oracle { return &oracle{truth: make(map[string][]int64)} }

func (o *oracle) put(id string, truth []int64) {
	o.mu.Lock()
	o.truth[id] = truth
	o.mu.Unlock()
}

func (o *oracle) drop(id string) {
	o.mu.Lock()
	delete(o.truth, id)
	o.mu.Unlock()
}

// answers returns the ground truth of the task the questions belong to.
func (o *oracle) answers(qs []task.Question) []int64 {
	id, _, _ := strings.Cut(qs[0].Text, "/")
	o.mu.Lock()
	truth := o.truth[id]
	o.mu.Unlock()
	return append([]int64(nil), truth...)
}

// generator produces the workload's task stream and worker population from
// one seed. Task i is the same for every run with that seed.
type generator struct {
	w      workload
	seed   int64
	oracle *oracle
	next   int
}

func newGenerator(w workload, seed int64) *generator {
	return &generator{w: w, seed: seed, oracle: newOracle()}
}

func taskID(i int) string { return fmt.Sprintf("t%06d", i) }

// nextTask generates the next task and records its ground truth.
func (g *generator) nextTask() (market.TaskSpec, error) {
	i := g.next
	g.next++
	id := taskID(i)
	opts := make([]string, g.w.rangeSize)
	for j := range opts {
		opts[j] = fmt.Sprintf("option-%d", j)
	}
	inst, err := task.Generate(task.GenerateParams{
		ID:        id,
		N:         g.w.n,
		RangeSize: g.w.rangeSize,
		NumGolden: g.w.golden,
		Workers:   g.w.workers(),
		Threshold: g.w.threshold,
		Budget:    ledger.Amount(100 * g.w.workers()),
		QuestionFn: func(q int) task.Question {
			return task.Question{Text: fmt.Sprintf("%s/%d", id, q), Options: opts}
		},
	}, rand.New(rand.NewSource(subSeed(g.seed, streamTasks, uint64(i)))))
	if err != nil {
		return market.TaskSpec{}, fmt.Errorf("generating task %s: %w", id, err)
	}
	g.oracle.put(id, inst.GroundTruth)
	return market.TaskSpec{Instance: inst}, nil
}

// population builds the worker pool every task enrolls in full.
func (g *generator) population() []worker.Model {
	var pop []worker.Model
	for j := 0; j < g.w.honest; j++ {
		pop = append(pop, worker.Model{
			Name:     fmt.Sprintf("honest-%d", j),
			Strategy: protocol.StrategyHonest,
			Answers: func(qs []task.Question, _ int64) []int64 {
				return g.oracle.answers(qs)
			},
		})
	}
	for j := 0; j < g.w.bots; j++ {
		rng := rand.New(rand.NewSource(subSeed(g.seed, streamBots, uint64(j))))
		pop = append(pop, worker.Bot(fmt.Sprintf("bot-%d", j), rng))
	}
	for j := 0; j < g.w.outrange; j++ {
		rng := rand.New(rand.NewSource(subSeed(g.seed, streamOutrange, uint64(j))))
		pop = append(pop, worker.Model{
			Name:     fmt.Sprintf("outrange-%d", j),
			Strategy: protocol.StrategyHonest,
			Answers: func(qs []task.Question, rangeSize int64) []int64 {
				answers := g.oracle.answers(qs)
				answers[rng.Intn(len(answers))] = rangeSize
				return answers
			},
		})
	}
	return pop
}

// sharedKey returns the requester key every task reuses, or nil when each
// task derives its own.
func (g *generator) sharedKey(grp group.Group) (*elgamal.PrivateKey, error) {
	if !g.w.sharedKey {
		return nil, nil
	}
	sk, err := elgamal.KeyGen(grp, drbg.New(subSeed(g.seed, streamKey, 0), "servicebench/requester-key"))
	if err != nil {
		return nil, fmt.Errorf("shared requester key: %w", err)
	}
	return sk, nil
}
