package dragoon

// Benchmarks for the optimistic parallel block executor (internal/chain
// executor.go) over the chain-execute round of benchwork.ExecRound, which
// BENCH_parallel.json times as the chain_execute_m1 / chain_execute_m8 ops.
// The workers=NumCPU row over the workers=1 row is the round-execution
// speedup.

import (
	"fmt"
	"testing"

	"dragoon/internal/benchwork"
)

// BenchmarkChainExecute measures round execution at M=1 and M=8 tasks,
// workers=1 vs NumCPU. ns/question is the per-transaction cost of the
// measured round.
func BenchmarkChainExecute(b *testing.B) {
	for _, m := range []int{1, 8} {
		round := benchwork.ExecRound(m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			workerSweep(b, m*benchwork.ExecTxsPerTask, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := round(); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
