package dragoon

// BenchmarkBatchVerify measures the batch-verification engine against the
// per-proof baseline: folded PoQoEA verification (poqoea.VerifyBatch — one
// multi-scalar multiplication over every claim's VPKE revelations) versus a
// loop of per-proof poqoea.Verify calls, at batch sizes 1/8/64/512 and pool
// sizes 1 and NumCPU. The "batched" over "perproof" ns/question ratio at a
// given size is the ALGORITHMIC speedup (≥3x at size 64 is the tracked
// target; see docs/BENCHMARKS.md); the workers=NumCPU rows add the parallel
// speedup on top. The same comparison is exported to BENCH_parallel.json by
// `make bench-json`.

import (
	"fmt"
	"runtime"
	"testing"

	"dragoon/internal/benchwork"
	"dragoon/internal/poqoea"
)

func BenchmarkBatchVerify(b *testing.B) {
	sizes := []int{1, 8, 64, 512}
	if testing.Short() {
		sizes = []int{1, 8} // keep the smoke bench's fixture small
	}
	pools := []int{1, runtime.NumCPU()}
	if pools[1] == 1 {
		pools = pools[:1] // single-core machine: the pool comparison is void
	}
	// One claim set serves every size: a smaller batch is a prefix of it.
	sk, all, err := benchwork.Claims(sizes[len(sizes)-1])
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range sizes {
		claims := all[:size]
		questions := size * benchwork.ClaimQuestions
		for _, w := range pools {
			run := func(mode string, body func()) {
				b.Run(fmt.Sprintf("size=%d/workers=%d/%s", size, w, mode), func(b *testing.B) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						body()
					}
					b.StopTimer()
					reportPerQuestion(b, questions)
				})
			}
			run("batched", func() {
				for _, ok := range poqoea.VerifyBatch(&sk.PublicKey, claims) {
					if !ok {
						b.Fatal("batched verification rejected an honest claim")
					}
				}
			})
			run("perproof", func() {
				for _, c := range claims {
					if !poqoea.Verify(&sk.PublicKey, c.Cts, c.Chi, c.Proof, c.Statement) {
						b.Fatal("per-proof verification rejected an honest claim")
					}
				}
			})
		}
	}
}
