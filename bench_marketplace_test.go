package dragoon

// BenchmarkMarketplace measures the multi-task marketplace: M concurrent
// HIT contracts on one shared chain, a shared worker population, per-round
// mining interleaving every task's transactions. It runs the same workload
// at workers=1 (fully sequential rounds) and workers=NumCPU (cross-task
// worker computation fanned out over one pool) and reports whole-market
// throughput as tasks/sec and questions/sec, next to workerSweep's
// ns/question; the ratio of the two rows is the marketplace speedup. The test group keeps one iteration fast enough
// for CI's smoke bench, so protocol logic rather than curve arithmetic
// dominates.

import (
	"testing"

	"dragoon/internal/benchwork"
	"dragoon/internal/market"
)

// marketplace is built once: the config is stateless, so one value serves
// every run.
var marketplace = fixture(benchwork.Marketplace)

func BenchmarkMarketplace(b *testing.B) {
	cfg := marketplace(b)
	workerSweep(b, benchwork.MarketTasks*benchwork.MarketQuestions, func(b *testing.B) {
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
		if secs := b.Elapsed().Seconds(); secs > 0 && b.N > 0 {
			n := float64(b.N)
			b.ReportMetric(n*benchwork.MarketTasks/secs, "tasks/sec")
			b.ReportMetric(n*benchwork.MarketTasks*benchwork.MarketQuestions/secs, "questions/sec")
		}
	})
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
		cfg := marketplace(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := SimulateMarketplace(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("isolated-chains", func(b *testing.B) {
		cfg := marketplace(b)
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
