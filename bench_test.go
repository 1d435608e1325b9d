package dragoon

// This file is the benchmark harness that regenerates every table in the
// paper's evaluation section (§VI). Run:
//
//	go test -bench=. -benchmem
//
// Every workload comes from internal/benchwork, which cmd/benchtables
// prints from too. Mapping:
//
//	Table I   (off-chain proving cost)      → BenchmarkTableI_*
//	Table II  (on-chain verification cost)  → BenchmarkTableII_*
//	Table III (gas / handling fees)         → BenchmarkTableIII_* (gas is
//	            deterministic; also asserted by TestTableIIIGasBands)
//	Ablations (scaling claims)              → BenchmarkAblation*
//
// The "generic ZKP" rows run a real Groth16 SNARK over BN254 against the
// constraint-count-matched baseline circuits (internal/gadget); benchmark
// sizes are reduced from the paper-scale circuit so the suite finishes in
// minutes — `cmd/benchtables -sweep` times larger sizes, from which the
// paper-scale cost extrapolates.

import (
	"math/rand"
	"sync"
	"testing"

	"dragoon/internal/benchwork"
	"dragoon/internal/elgamal"
	"dragoon/internal/groth16"
	"dragoon/internal/group"
	"dragoon/internal/poqoea"
	"dragoon/internal/sim"
	"dragoon/internal/task"
	"dragoon/internal/vpke"
	"dragoon/internal/worker"
)

// fixture builds a workload once per test binary; the returned getter
// fails the calling benchmark if the build failed.
func fixture[T any](build func() (T, error)) func(testing.TB) T {
	once := sync.OnceValues(build)
	return func(tb testing.TB) T {
		tb.Helper()
		v, err := once()
		if err != nil {
			tb.Fatal(err)
		}
		return v
	}
}

// imageNetProofs is the paper's §VI proving workload: the 106-question
// ImageNet submission with exactly 3 wrong golden answers.
var imageNetProofs = fixture(benchwork.ImageNetProofs)

// --- Table I: off-chain proving cost -----------------------------------------

// BenchmarkTableI_Ours_VPKE_Prove measures one verifiable decryption proof
// (paper: 3 ms, 53 MB).
func BenchmarkTableI_Ours_VPKE_Prove(b *testing.B) {
	f := imageNetProofs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vpke.Prove(f.Key, f.Cts[0], f.Statement.RangeSize, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_Ours_PoQoEA_Prove measures a full quality proof over the
// 106-question / 6-golden-standard ImageNet submission (paper: 10 ms, 53 MB).
func BenchmarkTableI_Ours_PoQoEA_Prove(b *testing.B) {
	f := imageNetProofs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := poqoea.Prove(f.Key, f.Cts, f.Statement, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerQuestion(b, len(f.Cts))
}

// genericVPKESize is the benchmark circuit size for one in-circuit
// decryption; cmd/benchtables sweeps paper-scale sizes.
const genericVPKESize = 1024

// provedCircuit runs a baseline circuit's seeded setup and proves it once.
func provedCircuit(c *benchwork.Circuit, err error) (*benchwork.Circuit, error) {
	if err == nil {
		err = c.Setup()
	}
	if err == nil {
		err = c.Prove()
	}
	return c, err
}

var (
	genericVPKE = fixture(func() (*benchwork.Circuit, error) {
		return provedCircuit(benchwork.VPKECircuit(genericVPKESize))
	})
	genericPoQoEA = fixture(func() (*benchwork.Circuit, error) {
		return provedCircuit(benchwork.PoQoEACircuit(genericVPKESize / 2))
	})
)

// BenchmarkTableI_Generic_VPKE_Prove measures Groth16 proving of the
// decryption stand-in circuit (paper: 37 s, 3.9 GB — at the authors'
// RSA-OAEP circuit scale).
func BenchmarkTableI_Generic_VPKE_Prove(b *testing.B) {
	if testing.Short() {
		b.Skip("generic baseline is slow")
	}
	f := genericVPKE(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := groth16.Prove(f.CS, f.PK, f.Witness, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_Generic_PoQoEA_Prove measures Groth16 proving of the
// 6-golden-standard generic quality circuit (paper: 112 s, 10.3 GB).
func BenchmarkTableI_Generic_PoQoEA_Prove(b *testing.B) {
	if testing.Short() {
		b.Skip("generic baseline is slow")
	}
	f := genericPoQoEA(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := groth16.Prove(f.CS, f.PK, f.Witness, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table II: on-chain verification cost ------------------------------------

// BenchmarkTableII_Ours_VPKE_Verify measures one VPKE verification
// (paper: 1 ms).
func BenchmarkTableII_Ours_VPKE_Verify(b *testing.B) {
	f := imageNetProofs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !vpke.VerifyValue(&f.Key.PublicKey, f.Dec.Value, f.Cts[0], f.DecProof) {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkTableII_Ours_PoQoEA_Verify measures one full PoQoEA verification
// with 3 wrong-answer revelations (paper: 2 ms, six golden standards).
func BenchmarkTableII_Ours_PoQoEA_Verify(b *testing.B) {
	f := imageNetProofs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !poqoea.Verify(&f.Key.PublicKey, f.Cts, f.Chi, f.Proof, f.Statement) {
			b.Fatal("verification failed")
		}
	}
	b.StopTimer()
	reportPerQuestion(b, len(f.Cts))
}

// reportPerQuestion adds an ns/question metric so runs at different task
// sizes stay comparable.
func reportPerQuestion(b *testing.B, questions int) {
	if b.N > 0 && questions > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(questions), "ns/question")
	}
}

// BenchmarkTableII_Generic_VPKE_Verify measures Groth16 verification (a
// 4-pairing product check; paper: 11 ms with libsnark's optimized pairings).
func BenchmarkTableII_Generic_VPKE_Verify(b *testing.B) {
	if testing.Short() {
		b.Skip("generic baseline is slow")
	}
	f := genericVPKE(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := groth16.Verify(f.VK, f.Public, f.Proof)
		if err != nil || !ok {
			b.Fatalf("verification failed: %v %v", ok, err)
		}
	}
}

// BenchmarkTableII_Generic_PoQoEA_Verify measures Groth16 verification of
// the generic quality circuit (paper: 17 ms — more public inputs).
func BenchmarkTableII_Generic_PoQoEA_Verify(b *testing.B) {
	if testing.Short() {
		b.Skip("generic baseline is slow")
	}
	f := genericPoQoEA(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := groth16.Verify(f.VK, f.Public, f.Proof)
		if err != nil || !ok {
			b.Fatalf("verification failed: %v %v", ok, err)
		}
	}
}

// --- Table III: on-chain handling fees ---------------------------------------

// runImageNet runs the paper's §VI task end to end (benchwork.RunImageNet).
func runImageNet(tb testing.TB, c benchwork.Case) *sim.Result {
	tb.Helper()
	res, err := benchwork.RunImageNet(c)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkTableIII_BestCase runs the full ImageNet task with no rejections
// and reports the gas rows as custom metrics (paper: overall ≈12164k gas,
// $2.09).
func BenchmarkTableIII_BestCase(b *testing.B) {
	if testing.Short() {
		b.Skip("full BN254 end-to-end simulation is slow")
	}
	for i := 0; i < b.N; i++ {
		res := runImageNet(b, benchwork.BestCase)
		b.ReportMetric(float64(res.GasTotal), "gas-total")
		b.ReportMetric(float64(res.GasByMethod["deploy"]+res.GasByMethod["publish"]), "gas-publish")
		b.ReportMetric(float64(res.GasByMethod["commit"]+res.GasByMethod["reveal"])/4, "gas-submit")
	}
}

// BenchmarkTableIII_WorstCase runs the task with every submission rejected
// via PoQoEA (paper: overall ≈12877k gas, $2.22; ≈180k per rejection).
func BenchmarkTableIII_WorstCase(b *testing.B) {
	if testing.Short() {
		b.Skip("full BN254 end-to-end simulation is slow")
	}
	for i := 0; i < b.N; i++ {
		res := runImageNet(b, benchwork.WorstCase)
		b.ReportMetric(float64(res.GasTotal), "gas-total")
		b.ReportMetric(float64(res.GasByMethod["evaluate"])/4, "gas-reject")
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationPoQoEAGolden sweeps the number of golden standards: the
// concrete proof's cost must be linear in |G| (and independent of N).
func BenchmarkAblationPoQoEAGolden(b *testing.B) {
	if testing.Short() {
		b.Skip("ablation sweep is slow")
	}
	g := group.TestSchnorr()
	sk, err := elgamal.KeyGen(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, numGolden := range []int{2, 4, 8, 16, 32} {
		b.Run(benchName("golden", numGolden), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(numGolden)))
			inst, err := task.Generate(task.GenerateParams{
				ID: "abl", N: 106, RangeSize: 2, NumGolden: numGolden,
				Workers: 1, Threshold: 1, Budget: 10,
			}, rng)
			if err != nil {
				b.Fatal(err)
			}
			st := inst.Golden.Statement(2)
			answers := make([]int64, 106) // all zero: roughly half wrong
			cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := poqoea.Prove(sk, cts, st, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGroth16Prove sweeps the constraint count: the generic
// route's cost grows with the circuit, the structural source of Table I.
func BenchmarkAblationGroth16Prove(b *testing.B) {
	if testing.Short() {
		b.Skip("generic baseline is slow")
	}
	for _, steps := range []int{128, 512, 2048} {
		b.Run(benchName("constraints", steps), func(b *testing.B) {
			f, err := benchwork.VPKECircuit(steps)
			if err == nil {
				err = f.Setup()
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := groth16.Prove(f.CS, f.PK, f.Witness, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGasVsQuestions sweeps the task size N: submit gas must
// scale linearly in N while the rejection gas stays constant (PoQoEA's
// proof size is independent of N).
func BenchmarkAblationGasVsQuestions(b *testing.B) {
	if testing.Short() {
		b.Skip("ablation sweep is slow")
	}
	for _, n := range []int{26, 56, 106, 206} {
		b.Run(benchName("N", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(n)))
				inst, err := task.Generate(task.GenerateParams{
					ID: "abl-gas", N: n, RangeSize: 2, NumGolden: 6,
					Workers: 2, Threshold: 4, Budget: 2000,
				}, rng)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.Config{
					Instance: inst,
					Group:    group.TestSchnorr(),
					Workers: []worker.Model{
						worker.Perfect("w0", inst.GroundTruth),
						worker.Perfect("w1", inst.GroundTruth),
					},
					Seed: int64(n),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.GasByMethod["commit"]+res.GasByMethod["reveal"])/2, "gas-submit")
			}
		})
	}
}

func benchName(label string, v int) string {
	return label + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
