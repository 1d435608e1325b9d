// Package task models Human Intelligence Tasks as the paper defines them
// (§IV): a batched sequence of N multiple-choice questions with answers in a
// small range, a hidden subset of |G| golden-standard questions with known
// answers Gs, a worker quota K, a quality threshold Θ, and a budget B paying
// B/K per accepted answer. It includes the generator for the paper's §VI
// evaluation workload — the ImageNet image-annotation HIT (106 binary
// questions, 6 golden standards, 4 workers, reject below 4 correct golden
// answers).
package task

import (
	"errors"
	"fmt"
	"math/rand"

	"dragoon/internal/ledger"
	"dragoon/internal/poqoea"
	"dragoon/internal/wire"
)

// Question is one multiple-choice question of a HIT.
type Question struct {
	// Text is the human-readable prompt (stored off-chain; only its digest
	// reaches the contract).
	Text string
	// Options are the answer choices; a valid answer indexes into them.
	Options []string
}

// Task is the public specification of a HIT.
type Task struct {
	// ID names the task (and its on-chain contract instance).
	ID string
	// Questions is the ordered question list (length N).
	Questions []Question
	// RangeSize is the number of options per question (|range|).
	RangeSize int64
	// Workers is the number of answers to collect (K).
	Workers int
	// Threshold is the minimal quality Θ for payment.
	Threshold int
	// Budget is the total reward pool B; each accepted worker earns B/K.
	Budget ledger.Amount
}

// N returns the number of questions.
func (t *Task) N() int { return len(t.Questions) }

// Reward returns the per-worker payment B/K.
func (t *Task) Reward() ledger.Amount {
	return t.Budget / ledger.Amount(t.Workers)
}

// Validate checks structural well-formedness of the task.
func (t *Task) Validate() error {
	if t.N() == 0 {
		return errors.New("task: no questions")
	}
	if t.RangeSize <= 1 {
		return fmt.Errorf("task: range size %d too small", t.RangeSize)
	}
	if t.Workers <= 0 {
		return fmt.Errorf("task: worker quota %d invalid", t.Workers)
	}
	if t.Budget == 0 || t.Reward() == 0 {
		return errors.New("task: budget does not cover one reward")
	}
	for i, q := range t.Questions {
		if int64(len(q.Options)) != t.RangeSize {
			return fmt.Errorf("task: question %d has %d options, want %d",
				i, len(q.Options), t.RangeSize)
		}
	}
	return nil
}

// Golden holds the requester's secret parameters sp = (G, Gs): the golden
// standard question indices and their ground-truth answers.
type Golden struct {
	Indices []int
	Answers []int64
}

// Statement lifts the golden standards into a PoQoEA statement.
func (g Golden) Statement(rangeSize int64) poqoea.Statement {
	return poqoea.Statement{
		GoldenIndices: append([]int{}, g.Indices...),
		GoldenAnswers: append([]int64{}, g.Answers...),
		RangeSize:     rangeSize,
	}
}

// Marshal encodes the golden standards (G ‖ Gs) for commitment and later
// public audit.
func (g Golden) Marshal() []byte {
	w := wire.NewWriter()
	w.WriteUint(uint64(len(g.Indices)))
	for _, idx := range g.Indices {
		w.WriteUint(uint64(idx))
	}
	for _, a := range g.Answers {
		w.WriteInt(a)
	}
	return w.Bytes()
}

// UnmarshalGolden decodes golden standards encoded by Marshal.
func UnmarshalGolden(data []byte) (Golden, error) {
	r := wire.NewReader(data)
	n, err := r.ReadCount()
	if err != nil {
		return Golden{}, fmt.Errorf("task: decoding golden count: %w", err)
	}
	g := Golden{Indices: make([]int, n), Answers: make([]int64, n)}
	for i := range g.Indices {
		v, err := r.ReadUint()
		if err != nil {
			return Golden{}, fmt.Errorf("task: decoding golden index: %w", err)
		}
		g.Indices[i] = int(v)
	}
	for i := range g.Answers {
		v, err := r.ReadInt()
		if err != nil {
			return Golden{}, fmt.Errorf("task: decoding golden answer: %w", err)
		}
		g.Answers[i] = v
	}
	if err := r.Done(); err != nil {
		return Golden{}, fmt.Errorf("task: golden encoding: %w", err)
	}
	return g, nil
}

// MarshalQuestions encodes the question list for off-chain (Swarm) storage;
// the contract commits only to its digest.
func (t *Task) MarshalQuestions() []byte {
	w := wire.NewWriter()
	w.WriteUint(uint64(len(t.Questions)))
	for _, q := range t.Questions {
		w.WriteString(q.Text)
		w.WriteUint(uint64(len(q.Options)))
		for _, o := range q.Options {
			w.WriteString(o)
		}
	}
	return w.Bytes()
}

// UnmarshalQuestions decodes a question list from off-chain storage.
func UnmarshalQuestions(data []byte) ([]Question, error) {
	r := wire.NewReader(data)
	n, err := r.ReadCount()
	if err != nil {
		return nil, fmt.Errorf("task: decoding question count: %w", err)
	}
	qs := make([]Question, n)
	for i := range qs {
		text, err := r.ReadString()
		if err != nil {
			return nil, fmt.Errorf("task: decoding question %d: %w", i, err)
		}
		opts, err := r.ReadCount()
		if err != nil {
			return nil, fmt.Errorf("task: decoding option count %d: %w", i, err)
		}
		q := Question{Text: text, Options: make([]string, opts)}
		for j := range q.Options {
			if q.Options[j], err = r.ReadString(); err != nil {
				return nil, fmt.Errorf("task: decoding option: %w", err)
			}
		}
		qs[i] = q
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("task: question encoding: %w", err)
	}
	return qs, nil
}

// Instance bundles a task with its secrets for simulation: the golden
// standards and a hidden full ground truth (what a perfectly informed
// worker would answer), which worker behaviour models perturb.
type Instance struct {
	Task        Task
	Golden      Golden
	GroundTruth []int64
}

// GenerateParams configures the synthetic task generator.
type GenerateParams struct {
	ID         string
	N          int
	RangeSize  int64
	NumGolden  int
	Workers    int
	Threshold  int
	Budget     ledger.Amount
	QuestionFn func(i int) Question // optional custom question content
}

// Generate builds a random task instance from rng (deterministic for a
// seeded rng, so experiments are reproducible).
func Generate(p GenerateParams, rng *rand.Rand) (*Instance, error) {
	if p.NumGolden <= 0 || p.NumGolden > p.N {
		return nil, fmt.Errorf("task: golden count %d out of range", p.NumGolden)
	}
	inst := &Instance{
		Task: Task{
			ID:        p.ID,
			RangeSize: p.RangeSize,
			Workers:   p.Workers,
			Threshold: p.Threshold,
			Budget:    p.Budget,
		},
	}
	qfn := p.QuestionFn
	if qfn == nil {
		qfn = func(i int) Question {
			opts := make([]string, p.RangeSize)
			for j := range opts {
				opts[j] = fmt.Sprintf("option-%d", j)
			}
			return Question{Text: fmt.Sprintf("question #%d", i), Options: opts}
		}
	}
	inst.Task.Questions = make([]Question, p.N)
	inst.GroundTruth = make([]int64, p.N)
	for i := 0; i < p.N; i++ {
		inst.Task.Questions[i] = qfn(i)
		inst.GroundTruth[i] = int64(rng.Intn(int(p.RangeSize)))
	}
	for _, idx := range rng.Perm(p.N)[:p.NumGolden] {
		inst.Golden.Indices = append(inst.Golden.Indices, idx)
		inst.Golden.Answers = append(inst.Golden.Answers, inst.GroundTruth[idx])
	}
	if err := inst.Task.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// NewImageNet generates the paper's §VI evaluation task: "each task is made
// of 106 binary questions, 100 out of which are non-gold-standard questions,
// while the remaining 6 questions are requester's gold-standard challenges;
// 4 workers are allowed to participate; if a worker cannot correctly answer
// at least four golden standard questions, his submission will be rejected".
func NewImageNet(budget ledger.Amount, rng *rand.Rand) (*Instance, error) {
	return Generate(GenerateParams{
		ID:        "imagenet-annotation",
		N:         106,
		RangeSize: 2,
		NumGolden: 6,
		Workers:   4,
		Threshold: 4,
		Budget:    budget,
		QuestionFn: func(i int) Question {
			return Question{
				Text:    fmt.Sprintf("Does image #%04d contain the target attribute?", i),
				Options: []string{"no", "yes"},
			}
		},
	}, rng)
}
