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
	"testing"

	"dragoon/internal/benchwork"
	"dragoon/internal/groth16"
	"dragoon/internal/group"
	"dragoon/internal/poqoea"
	"dragoon/internal/sim"
	"dragoon/internal/task"
	"dragoon/internal/worker"
)

// wideProofs is a wider workload than the paper's ImageNet task (see
// benchwork.WideProofs): 64 questions, 32 golden standards, 16 VPKE
// openings per quality proof.
var wideProofs = fixture(benchwork.WideProofs)

// workerSweep runs body once per pool size (1 and NumCPU) as sub-benchmarks
// and reports per-question cost.
func workerSweep(b *testing.B, questions int, body func(b *testing.B)) {
	sizes := []int{1, runtime.NumCPU()}
	if sizes[1] == 1 {
		sizes = sizes[:1] // single-core machine: the comparison is void
	}
	for _, w := range sizes {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
			b.ReportAllocs()
			b.ResetTimer()
			body(b)
			b.StopTimer()
			reportPerQuestion(b, questions)
		})
	}
}

// BenchmarkParallel_PoQoEA_Verify measures batch verification of a PoQoEA
// proof with 16 VPKE openings; the workers=N row over the workers=1 row is
// the parallel speedup (≥2x expected at 4+ cores).
func BenchmarkParallel_PoQoEA_Verify(b *testing.B) {
	f := wideProofs(b)
	workerSweep(b, len(f.Cts), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !poqoea.Verify(&f.Key.PublicKey, f.Cts, f.Chi, f.Proof, f.Statement) {
				b.Fatal("verification failed")
			}
		}
	})
}

// BenchmarkParallel_PoQoEA_Prove measures quality proving over 32 golden
// standards (32 independent decrypt+transcript items after the sequential
// nonce draws).
func BenchmarkParallel_PoQoEA_Prove(b *testing.B) {
	f := wideProofs(b)
	workerSweep(b, len(f.Cts), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := poqoea.Prove(f.Key, f.Cts, f.Statement, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallel_Encrypt measures per-question parallel encryption of a
// full answer vector (2N scalar multiplications after the sequential
// randomness draws).
func BenchmarkParallel_Encrypt(b *testing.B) {
	f := wideProofs(b)
	workerSweep(b, len(f.Cts), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := poqoea.EncryptAnswers(&f.Key.PublicKey, f.Answers, nil); err != nil {
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
			if _, err := groth16.Prove(f.CS, f.PK, f.Witness, nil); err != nil {
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
