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
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/poqoea"
	"dragoon/internal/task"
)

// batchClaimParams is the claim shape shared with `cmd/benchtables -json`
// through task.GenerateClaims: small tasks so large batches stay
// affordable, each claim carrying Wrong VPKE revelations.
var batchClaimParams = task.ClaimParams{N: 16, NumGolden: 8, Wrong: 4, RangeSize: 4}

var (
	batchFixtureMu  sync.Mutex
	batchFixtureKey *elgamal.PrivateKey
	batchFixtureSet []poqoea.Claim
	batchFixtureRng = rand.New(rand.NewSource(64))
)

// batchBenchClaims returns the first n claims of a lazily grown BN254
// fixture (distinct task and ciphertexts per claim), building only as many
// claims as the largest batch size requested so far.
func batchBenchClaims(tb testing.TB, n int) (*elgamal.PrivateKey, []poqoea.Claim) {
	tb.Helper()
	batchFixtureMu.Lock()
	defer batchFixtureMu.Unlock()
	if batchFixtureKey == nil {
		sk, err := elgamal.KeyGen(group.BN254G1(), batchFixtureRng)
		if err != nil {
			tb.Fatalf("keygen: %v", err)
		}
		batchFixtureKey = sk
	}
	if missing := n - len(batchFixtureSet); missing > 0 {
		claims, err := task.GenerateClaims(batchFixtureKey, missing, batchClaimParams, batchFixtureRng)
		if err != nil {
			tb.Fatalf("claims: %v", err)
		}
		batchFixtureSet = append(batchFixtureSet, claims...)
	}
	return batchFixtureKey, batchFixtureSet[:n]
}

func BenchmarkBatchVerify(b *testing.B) {
	sizes := []int{1, 8, 64, 512}
	if testing.Short() {
		sizes = []int{1, 8} // keep the smoke bench's fixture small
	}
	pools := []int{1, runtime.NumCPU()}
	if pools[1] == 1 {
		pools = pools[:1] // single-core machine: the pool comparison is void
	}
	for _, size := range sizes {
		sk, claims := batchBenchClaims(b, size)
		questions := size * batchClaimParams.N
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
					if b.N > 0 {
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(questions), "ns/question")
					}
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
