package dragoon

// Benchmarks for the parallel execution layer (internal/parallel and the
// hot paths threaded through it). Each benchmark runs the same workload at
// workers=1 (the sequential path) and workers=NumCPU, so the speedup is the
// ratio of the two sub-benchmark rows; on a 4+ core machine the PoQoEA
// prove/verify fan-outs scale near-linearly (each item is an independent
// batch of scalar multiplications with no shared state). The same numbers
// are exported as JSON by `make bench-json` (cmd/benchtables -json).

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dragoon/internal/elgamal"
	"dragoon/internal/groth16"
	"dragoon/internal/group"
	"dragoon/internal/parallel"
	"dragoon/internal/poqoea"
	"dragoon/internal/sim"
	"dragoon/internal/task"
	"dragoon/internal/worker"
)

// parallelFixture is a wider workload than the paper's ImageNet task: 64
// questions with 32 golden standards, half of them answered wrongly, so a
// PoQoEA proof carries 16 independent VPKE openings — enough exposed
// parallelism to saturate small core counts.
type parallelFixture struct {
	sk      *elgamal.PrivateKey
	st      poqoea.Statement
	cts     []elgamal.Ciphertext
	answers []int64
	quality int
	proof   *poqoea.Proof
}

const (
	parallelFixtureN      = 64
	parallelFixtureGolden = 32
)

var (
	parallelFixtureOnce sync.Once
	parallelFixtureVal  *parallelFixture
)

func parallelBenchFixture(tb testing.TB) *parallelFixture {
	tb.Helper()
	parallelFixtureOnce.Do(func() {
		g := group.BN254G1()
		sk, err := elgamal.KeyGen(g, nil)
		if err != nil {
			tb.Fatalf("keygen: %v", err)
		}
		rng := rand.New(rand.NewSource(4))
		inst, err := task.Generate(task.GenerateParams{
			ID: "parbench", N: parallelFixtureN, RangeSize: 4,
			NumGolden: parallelFixtureGolden, Workers: 1, Threshold: 1, Budget: 100,
		}, rng)
		if err != nil {
			tb.Fatalf("task: %v", err)
		}
		st := inst.Golden.Statement(inst.Task.RangeSize)
		answers := append([]int64{}, inst.GroundTruth...)
		for _, gi := range inst.Golden.Indices[:parallelFixtureGolden/2] {
			answers[gi] = (answers[gi] + 1) % inst.Task.RangeSize
		}
		cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, nil)
		if err != nil {
			tb.Fatalf("encrypt: %v", err)
		}
		quality, proof, err := poqoea.Prove(sk, cts, st, nil)
		if err != nil {
			tb.Fatalf("prove: %v", err)
		}
		parallelFixtureVal = &parallelFixture{
			sk: sk, st: st, cts: cts, answers: answers,
			quality: quality, proof: proof,
		}
	})
	return parallelFixtureVal
}

// workerSweep runs body once per pool size (1 and NumCPU) as sub-benchmarks
// and reports per-question cost.
func workerSweep(b *testing.B, questions int, body func(b *testing.B)) {
	sizes := []int{1, runtime.NumCPU()}
	if sizes[1] == 1 {
		sizes = sizes[:1] // single-core machine: the comparison is void
	}
	for _, w := range sizes {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetDefaultWorkers(w)
			defer parallel.SetDefaultWorkers(prev)
			b.ReportAllocs()
			b.ResetTimer()
			body(b)
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(questions), "ns/question")
			}
		})
	}
}

// BenchmarkParallel_PoQoEA_Verify measures batch verification of a PoQoEA
// proof with 16 VPKE openings; the workers=N row over the workers=1 row is
// the parallel speedup (≥2x expected at 4+ cores).
func BenchmarkParallel_PoQoEA_Verify(b *testing.B) {
	f := parallelBenchFixture(b)
	workerSweep(b, parallelFixtureN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !poqoea.Verify(&f.sk.PublicKey, f.cts, f.quality, f.proof, f.st) {
				b.Fatal("verification failed")
			}
		}
	})
}

// BenchmarkParallel_PoQoEA_Prove measures quality proving over 32 golden
// standards (32 independent decrypt+transcript items after the sequential
// nonce draws).
func BenchmarkParallel_PoQoEA_Prove(b *testing.B) {
	f := parallelBenchFixture(b)
	workerSweep(b, parallelFixtureN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := poqoea.Prove(f.sk, f.cts, f.st, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallel_Encrypt measures per-question parallel encryption of a
// full answer vector (2N scalar multiplications after the sequential
// randomness draws).
func BenchmarkParallel_Encrypt(b *testing.B) {
	f := parallelBenchFixture(b)
	workerSweep(b, parallelFixtureN, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := poqoea.EncryptAnswers(&f.sk.PublicKey, f.answers, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallel_Groth16_Prove measures the Groth16 prover (chunk-
// parallel MSMs plus the parallel QAP quotient) on the generic VPKE
// baseline circuit.
func BenchmarkParallel_Groth16_Prove(b *testing.B) {
	if testing.Short() {
		b.Skip("generic baseline is slow")
	}
	f := genericVPKE(b)
	workerSweep(b, genericVPKESize, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := groth16.Prove(f.cs, f.pk, f.wit, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallel_Sim_Run measures a full end-to-end run with six workers
// computing their rounds concurrently (test group, so the protocol logic
// rather than curve arithmetic dominates).
func BenchmarkParallel_Sim_Run(b *testing.B) {
	if testing.Short() {
		b.Skip("end-to-end simulation is slow")
	}
	rng := rand.New(rand.NewSource(8))
	inst, err := task.Generate(task.GenerateParams{
		ID: "parsim", N: 64, RangeSize: 2, NumGolden: 8,
		Workers: 6, Threshold: 8, Budget: 6000,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	models := make([]worker.Model, 6)
	for i := range models {
		models[i] = worker.Perfect(fmt.Sprintf("w%d", i), inst.GroundTruth)
	}
	workerSweep(b, 64, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(sim.Config{
				Instance: inst,
				Group:    group.TestSchnorr(),
				Workers:  models,
				Seed:     8,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Finalized {
				b.Fatal("task did not finalize")
			}
		}
	})
}
