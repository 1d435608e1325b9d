package dragoon

// BenchmarkMarketplace measures the multi-task marketplace: M concurrent
// HIT contracts on one shared chain, a shared worker population, per-round
// mining interleaving every task's transactions. It runs the same workload
// at workers=1 (fully sequential rounds) and workers=NumCPU (cross-task
// worker computation fanned out over one pool) and reports whole-market
// throughput as tasks/sec and questions/sec; the ratio of the two rows is
// the marketplace speedup. The test group keeps one iteration fast enough
// for CI's smoke bench, so protocol logic rather than curve arithmetic
// dominates.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dragoon/internal/market"
	"dragoon/internal/protocol"
)

const (
	benchMarketTasks     = 8
	benchMarketQuestions = 24
	benchMarketWorkers   = 5
)

// benchMarketConfig builds an M-task marketplace over a shared population:
// one task-agnostic member takes every task, and each task additionally
// enrolls its own accurate/bot pair plus perfect workers.
func benchMarketConfig(b *testing.B) MarketplaceConfig {
	b.Helper()
	population := []WorkerModel{{
		Name:     "everywhere",
		Strategy: protocol.StrategyHonest,
		Answers: func(qs []Question, rangeSize int64) []int64 {
			out := make([]int64, len(qs))
			for i := range out {
				out[i] = int64(i) % rangeSize
			}
			return out
		},
	}}
	specs := make([]MarketplaceTask, benchMarketTasks)
	for ti := 0; ti < benchMarketTasks; ti++ {
		rng := rand.New(rand.NewSource(int64(300 + ti)))
		inst, err := NewTask(TaskParams{
			ID: fmt.Sprintf("bench-mkt-%d", ti), N: benchMarketQuestions,
			RangeSize: 4, NumGolden: 6, Workers: benchMarketWorkers,
			Threshold: 3, Budget: 5000,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		enroll := []int{0}
		for w := 0; w < benchMarketWorkers-1; w++ {
			enroll = append(enroll, len(population))
			population = append(population,
				PerfectWorker(fmt.Sprintf("w%d-%d", ti, w), inst.GroundTruth))
		}
		specs[ti] = MarketplaceTask{Instance: inst, Enroll: enroll}
	}
	return MarketplaceConfig{
		Tasks:      specs,
		Group:      TestGroup(),
		Population: population,
		Seed:       300,
	}
}

func BenchmarkMarketplace(b *testing.B) {
	sizes := []int{1, runtime.NumCPU()}
	if sizes[1] == 1 {
		sizes = sizes[:1] // single-core machine: the comparison is void
	}
	for _, w := range sizes {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
			// The config is stateless (deterministic models, fresh chain
			// per run), so it is built once outside the timed loop.
			cfg := benchMarketConfig(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := SimulateMarketplace(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, tr := range res.Tasks {
					if !tr.Finalized {
						b.Fatalf("task %s did not finalize", tr.ID)
					}
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 && b.N > 0 {
				n := float64(b.N)
				b.ReportMetric(n*benchMarketTasks/secs, "tasks/sec")
				b.ReportMetric(n*benchMarketTasks*benchMarketQuestions/secs, "questions/sec")
			}
		})
	}
}

// BenchmarkMarketplaceVsSequentialTasks compares the shared-chain
// marketplace against running the same M tasks one after another on
// separate chains (the pre-marketplace deployment), so the scaling benefit
// of interleaving tasks is tracked directly.
func BenchmarkMarketplaceVsSequentialTasks(b *testing.B) {
	if testing.Short() {
		b.Skip("comparison baseline is redundant in the smoke bench")
	}
	b.Run("shared-chain", func(b *testing.B) {
		cfg := benchMarketConfig(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := SimulateMarketplace(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("isolated-chains", func(b *testing.B) {
		cfg := benchMarketConfig(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for ti := range cfg.Tasks {
				one := cfg
				spec := cfg.Tasks[ti]
				spec.Seed = cfg.TaskSeed(ti)
				one.Tasks = []market.TaskSpec{spec}
				if _, err := SimulateMarketplace(one); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
