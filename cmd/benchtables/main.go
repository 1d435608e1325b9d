// Command benchtables regenerates the Dragoon paper's evaluation tables
// (§VI, Tables I–III) and the headline comparison, printing each in the
// paper's own format next to the paper's reported values.
//
//	benchtables -table 1      off-chain proving cost (ours vs generic ZKP)
//	benchtables -table 2      on-chain verification cost
//	benchtables -table 3      gas usage and USD handling fees
//	benchtables -headline     the Dragoon-vs-MTurk handling-fee claim
//	benchtables -sweep        Groth16 scaling sweep (the cost of generality)
//	benchtables -all          everything
//
// The generic-ZKP rows run the real Groth16 implementation at
// bench-friendly circuit sizes (-steps to change); the sweep prints the
// scaling series from which the paper-scale extrapolation in EXPERIMENTS.md
// is derived.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dragoon/internal/adversary"
	"dragoon/internal/bn254"
	"dragoon/internal/elgamal"
	"dragoon/internal/gadget"
	"dragoon/internal/gas"
	"dragoon/internal/groth16"
	"dragoon/internal/group"
	"dragoon/internal/market"
	"dragoon/internal/parallel"
	"dragoon/internal/poqoea"
	"dragoon/internal/protocol"
	"dragoon/internal/r1cs"
	"dragoon/internal/service"
	"dragoon/internal/sim"
	"dragoon/internal/task"
	"dragoon/internal/vpke"
	"dragoon/internal/worker"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate table 1, 2 or 3")
		headline = flag.Bool("headline", false, "print the Dragoon-vs-MTurk headline")
		sweep    = flag.Bool("sweep", false, "Groth16 scaling sweep")
		all      = flag.Bool("all", false, "regenerate everything")
		steps    = flag.Int("steps", 1024, "generic-ZKP circuit size (chain steps per decryption)")
		jsonPath = flag.String("json", "", "write parallel-speedup benchmark results to this JSON file")
		workers  = flag.Int("workers", 0, "parallel pool size for the -json comparison (0 = NumCPU; floored at 2 so a sequential/parallel pair is always measured, even on 1-CPU hosts)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the selected runs to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the selected runs to this file")
	)
	flag.Parse()

	run := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
			os.Exit(1)
		}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		run(err)
		run(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			run(err)
			runtime.GC()
			run(pprof.WriteHeapProfile(f))
			f.Close()
		}()
	}
	did := false
	if *all || *table == 1 {
		run(tableI(*steps))
		did = true
	}
	if *all || *table == 2 {
		run(tableII(*steps))
		did = true
	}
	if *all || *table == 3 {
		run(tableIII())
		did = true
	}
	if *all || *headline {
		run(headlineClaim())
		did = true
	}
	if *all || *sweep {
		run(groth16Sweep())
		did = true
	}
	if *jsonPath != "" {
		run(writeParallelJSON(*jsonPath, *workers))
		did = true
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
}

// parallelBenchResult is one measured operation at one pool size. Each row
// records the pool size it ran under as parallel_workers, so a row is
// interpretable on its own — in particular on single-core hosts, where the
// floored pool (see the -workers flag) makes "parallel" rows measure pool
// overhead rather than speedup.
type parallelBenchResult struct {
	Name          string  `json:"name"`
	Workers       int     `json:"parallel_workers"`
	Questions     int     `json:"questions,omitempty"`
	NsPerOp       int64   `json:"ns_per_op"`
	NsPerQuestion float64 `json:"ns_per_question,omitempty"`
}

// parallelBenchReport is the BENCH_parallel.json schema: per-operation
// timings at workers=1 and workers=ParallelWorkers plus the resulting
// speedups, so the performance trajectory of the parallel layer is tracked
// PR over PR. docs/BENCHMARKS.md documents how to read it.
type parallelBenchReport struct {
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// CPUCount mirrors NumCPU under the key downstream tooling reads next
	// to single_core; both describe the host the JSON was generated on.
	CPUCount int `json:"cpu_count"`
	// ParallelWorkers is the pool size of the parallel rows (the -workers
	// flag; never 1, so Speedups is never empty).
	ParallelWorkers int `json:"parallel_workers"`
	// SingleCore flags a NumCPU==1 host: the Speedups map then quantifies
	// the pool's overhead (values ≈ or below 1), NOT parallel scaling —
	// without this flag such runs read as performance regressions.
	SingleCore bool                  `json:"single_core"`
	Results    []parallelBenchResult `json:"results"`
	// Speedups is sequential-vs-pool for each operation (workers=1 ns over
	// workers=ParallelWorkers ns).
	Speedups map[string]float64 `json:"speedups"`
	// BatchSpeedups is the ALGORITHMIC speedup of folded verification over
	// per-proof verification at each batch size, measured at workers=1 so
	// it is independent of core count ("batch=64": 3 means one fold over 64
	// claims verifies 3x faster per question than 64 per-proof calls).
	BatchSpeedups map[string]float64 `json:"batch_speedups"`
	// ServiceStream reports the streaming service's throughput and
	// settlement-latency percentiles (see serviceStreamStats), measured once
	// at the default pool size alongside the service_stream op rows.
	ServiceStream *serviceStreamStats `json:"service_stream,omitempty"`
}

// serviceStreamStats is the streaming-service row of BENCH_parallel.json: a
// background service (internal/service) with tasks flowing through its
// admission mempool, measured end to end — questions settled per second and
// the p50/p99 admission-to-settlement latency from service.Stats.
type serviceStreamStats struct {
	Tasks           int     `json:"tasks"`
	QuestionsPerSec float64 `json:"questions_per_sec"`
	P50SettleMs     float64 `json:"p50_settle_ms"`
	P99SettleMs     float64 `json:"p99_settle_ms"`
}

// writeParallelJSON benchmarks the parallel hot paths sequentially and at
// parWorkers-way parallelism (NumCPU if 0, floored at 2) and writes the
// comparison to path. Both pool sizes are always measured — on a 1-CPU
// host the parallel rows quantify the pool's overhead rather than a
// speedup, but the speedups map is never silently empty.
func writeParallelJSON(path string, parWorkers int) error {
	const (
		nQuestions = 64
		nGolden    = 32
		g16Steps   = 256
	)
	g := group.BN254G1()
	sk, err := elgamal.KeyGen(g, nil)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(4))
	inst, err := task.Generate(task.GenerateParams{
		ID: "parbench", N: nQuestions, RangeSize: 4, NumGolden: nGolden,
		Workers: 1, Threshold: 1, Budget: 100,
	}, rng)
	if err != nil {
		return err
	}
	st := inst.Golden.Statement(inst.Task.RangeSize)
	answers := append([]int64{}, inst.GroundTruth...)
	for _, gi := range inst.Golden.Indices[:nGolden/2] {
		answers[gi] = (answers[gi] + 1) % inst.Task.RangeSize
	}
	cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, nil)
	if err != nil {
		return err
	}
	chi, proof, err := poqoea.Prove(sk, cts, st, nil)
	if err != nil {
		return err
	}
	g16, err := buildGeneric(g16Steps, false)
	if err != nil {
		return err
	}
	marketCfg := marketBenchConfig()
	batchClaims, err := batchBenchClaims(sk, batchBenchSizes[len(batchBenchSizes)-1])
	if err != nil {
		return err
	}
	adversaryMatrix := adversary.ParticipantMatrix()
	// Variable-base scalar-mul fixture: an off-generator point (so no
	// fixed-base table applies) and a full-width scalar.
	scalarMulBase := bn254.G1Generator().ScalarMul(big.NewInt(987654321))
	scalarMulK := new(big.Int).Rsh(bn254.Order(), 1)

	ops := []struct {
		name      string
		questions int
		fn        func()
	}{
		{"poqoea_prove", nQuestions, func() {
			if _, _, err := poqoea.Prove(sk, cts, st, nil); err != nil {
				panic(err)
			}
		}},
		{"poqoea_verify", nQuestions, func() {
			if !poqoea.Verify(&sk.PublicKey, cts, chi, proof, st) {
				panic("verify failed")
			}
		}},
		{"encrypt_answers", nQuestions, func() {
			if _, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, nil); err != nil {
				panic(err)
			}
		}},
		// scalar_mul_limb times the variable-base GLV scalar multiplication
		// on BN254 G1, which runs on the Montgomery-limb Fp kernels.
		{"scalar_mul_limb", 0, func() {
			for i := 0; i < 16; i++ {
				scalarMulBase.ScalarMul(scalarMulK)
			}
		}},
		{"groth16_prove", 0, func() {
			if _, err := groth16.Prove(g16.cs, g16.pk, g16.w, nil); err != nil {
				panic(err)
			}
		}},
		{"chain_execute_m1", 1 * chainExecWorkersPerTask, chainExecuteFn(1)},
		{"chain_execute_m8", 8 * chainExecWorkersPerTask, chainExecuteFn(8)},
		{"marketplace_run", marketBenchTasks * marketBenchQuestions, func() {
			res, err := market.Run(marketCfg)
			if err != nil {
				panic(err)
			}
			for _, tr := range res.Tasks {
				if !tr.Finalized {
					panic("marketplace task did not finalize")
				}
			}
		}},
		// The same workload through the streaming service path (admission
		// mempool, settled-state pruning, retention trimming): the delta to
		// marketplace_run is the service's overhead.
		{"service_stream", marketBenchTasks * marketBenchQuestions, func() {
			if err := runServiceStream(marketCfg); err != nil {
				panic(err)
			}
		}},
		// The participant-level adversary matrix — every byzantine and
		// economic (rational/collusion/sybil) scenario co-located on one
		// shared chain, invariants checked — as a single op. This is the
		// harness's own cost: tracking it PR over PR keeps the invariant
		// suite cheap enough to run everywhere, and the parallel row measures
		// how well the scenario fan-out uses the pool.
		{"adversary_matrix", len(adversaryMatrix) * 16, func() {
			rep, err := adversary.RunMatrix(adversaryMatrix, adversary.Options{
				Group:         group.TestSchnorr(),
				Seed:          1729,
				WorkerBalance: 5,
			})
			if err != nil {
				panic(err)
			}
			if err := rep.CheckInvariants(); err != nil {
				panic(err)
			}
		}},
	}
	// The marketplace split across S lockstep-mined chains, cross-shard
	// payouts settling through the HTLC escrow. s1 is the single-chain
	// baseline under the same op so the shard series is self-contained; at
	// workers=1 the s>1 rows price the sharding + settlement overhead, at
	// the pool size they measure concurrent shard mining.
	for _, s := range []int{1, 2, 4, 8} {
		cfg := marketBenchConfig()
		cfg.Shards = s
		ops = append(ops, struct {
			name      string
			questions int
			fn        func()
		}{fmt.Sprintf("marketplace_sharded_s%d", s), marketBenchTasks * marketBenchQuestions, func() {
			res, err := market.Run(cfg)
			if err != nil {
				panic(err)
			}
			for _, tr := range res.Tasks {
				if !tr.Finalized {
					panic("sharded marketplace task did not finalize")
				}
			}
			for _, st := range res.Settlements {
				if !st.Claimed {
					panic("cross-shard settlement did not claim")
				}
			}
		}})
	}
	// Folded vs per-proof verification at each batch size, plus ONE
	// per-proof baseline over the largest batch (per-proof cost is linear
	// in the claim count, so smaller baselines are derived from it).
	for _, size := range batchBenchSizes {
		size := size
		claims := batchClaims[:size]
		ops = append(ops, struct {
			name      string
			questions int
			fn        func()
		}{fmt.Sprintf("poqoea_verify_batch%d", size), size * batchBenchParams.N, func() {
			for _, ok := range poqoea.VerifyBatch(&sk.PublicKey, claims) {
				if !ok {
					panic("batched verification rejected an honest claim")
				}
			}
		}})
	}
	baselineName := fmt.Sprintf("poqoea_verify_perproof%d", batchBenchSizes[len(batchBenchSizes)-1])
	ops = append(ops, struct {
		name      string
		questions int
		fn        func()
	}{baselineName, batchBenchSizes[len(batchBenchSizes)-1] * batchBenchParams.N, func() {
		for _, c := range batchClaims {
			if !poqoea.Verify(&sk.PublicKey, c.Cts, c.Chi, c.Proof, c.Statement) {
				panic("per-proof verification rejected an honest claim")
			}
		}
	}})

	if parWorkers <= 0 {
		parWorkers = runtime.NumCPU()
	}
	if parWorkers < 2 {
		// Always measure a sequential/parallel pair so Speedups is never
		// empty: on a single core the parallel rows measure pool overhead.
		parWorkers = 2
	}
	report := parallelBenchReport{
		Timestamp:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		NumCPU:          runtime.NumCPU(),
		CPUCount:        runtime.NumCPU(),
		ParallelWorkers: parWorkers,
		SingleCore:      runtime.NumCPU() == 1,
		Speedups:        map[string]float64{},
		BatchSpeedups:   map[string]float64{},
	}
	seqNs := map[string]int64{}
	for _, workers := range []int{1, parWorkers} {
		prev := parallel.SetDefaultWorkers(workers)
		for _, op := range ops {
			t, _ := measure(op.fn)
			r := parallelBenchResult{
				Name:      op.name,
				Workers:   workers,
				Questions: op.questions,
				NsPerOp:   t.Nanoseconds(),
			}
			if op.questions > 0 {
				r.NsPerQuestion = float64(t.Nanoseconds()) / float64(op.questions)
			}
			report.Results = append(report.Results, r)
			if workers == 1 {
				seqNs[op.name] = t.Nanoseconds()
			} else if seq := seqNs[op.name]; seq > 0 && t.Nanoseconds() > 0 {
				report.Speedups[op.name] = float64(seq) / float64(t.Nanoseconds())
			}
		}
		parallel.SetDefaultWorkers(prev)
	}
	// Algorithmic batch speedups at workers=1: per-proof cost scales
	// linearly with the claim count, so every size's baseline derives from
	// the one measured per-proof sweep over the largest batch.
	maxSize := batchBenchSizes[len(batchBenchSizes)-1]
	if base := seqNs[baselineName]; base > 0 {
		for _, size := range batchBenchSizes {
			if t := seqNs[fmt.Sprintf("poqoea_verify_batch%d", size)]; t > 0 {
				report.BatchSpeedups[fmt.Sprintf("batch=%d", size)] =
					float64(base) / float64(maxSize) * float64(size) / float64(t)
			}
		}
	}

	stream, err := measureServiceStream()
	if err != nil {
		return err
	}
	report.ServiceStream = stream

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d CPUs", path, report.NumCPU)
	for _, op := range ops {
		if s, ok := report.Speedups[op.name]; ok {
			fmt.Printf(", %s ×%.2f", op.name, s)
		}
	}
	for _, size := range batchBenchSizes {
		if s, ok := report.BatchSpeedups[fmt.Sprintf("batch=%d", size)]; ok {
			fmt.Printf(", batch=%d ×%.2f", size, s)
		}
	}
	fmt.Printf(", stream %.0f q/s p50=%.0fms p99=%.0fms",
		stream.QuestionsPerSec, stream.P50SettleMs, stream.P99SettleMs)
	fmt.Println(")")
	return nil
}

// Marketplace benchmark workload: M small concurrent tasks on one shared
// chain over the test group, so protocol and harness logic rather than
// curve arithmetic dominates the measurement.
const (
	marketBenchTasks     = 6
	marketBenchQuestions = 16
	marketBenchWorkers   = 4
)

func marketBenchConfig() market.Config {
	population := []worker.Model{{
		Name:     "shared",
		Strategy: protocol.StrategyHonest,
		Answers: func(qs []task.Question, rangeSize int64) []int64 {
			out := make([]int64, len(qs))
			for i := range out {
				out[i] = int64(i) % rangeSize
			}
			return out
		},
	}}
	specs := make([]market.TaskSpec, marketBenchTasks)
	for ti := range specs {
		inst, err := task.Generate(task.GenerateParams{
			ID: fmt.Sprintf("jsonbench-%d", ti), N: marketBenchQuestions,
			RangeSize: 4, NumGolden: 4, Workers: marketBenchWorkers,
			Threshold: 2, Budget: 4000,
		}, rand.New(rand.NewSource(int64(600+ti))))
		if err != nil {
			panic(err)
		}
		enroll := []int{0}
		for w := 0; w < marketBenchWorkers-1; w++ {
			enroll = append(enroll, len(population))
			population = append(population,
				worker.Perfect(fmt.Sprintf("w%d-%d", ti, w), inst.GroundTruth))
		}
		specs[ti] = market.TaskSpec{Instance: inst, Enroll: enroll}
	}
	return market.Config{
		Tasks:      specs,
		Group:      group.TestSchnorr(),
		Population: population,
		Seed:       600,
	}
}

// runServiceStream drives the marketplace benchmark workload through a
// manual-mode streaming service to settlement — the service-path counterpart
// of the marketplace_run op.
func runServiceStream(cfg market.Config) error {
	svc, err := service.New(service.Config{
		Group:      cfg.Group,
		Population: cfg.Population,
		Seed:       cfg.Seed,
		Manual:     true,
	})
	if err != nil {
		return err
	}
	for _, spec := range cfg.Tasks {
		if err := svc.SubmitTask(spec); err != nil {
			return err
		}
	}
	settled := 0
	for r := 0; r < 64 && settled < len(cfg.Tasks); r++ {
		if err := svc.Step(context.Background()); err != nil {
			return err
		}
		for _, st := range svc.Poll() {
			if st.Err != nil || st.Expired || st.Result == nil || !st.Result.Finalized {
				return fmt.Errorf("service stream: task %s did not finalize", st.ID)
			}
			settled++
		}
	}
	if settled != len(cfg.Tasks) {
		return fmt.Errorf("service stream: %d/%d tasks settled", settled, len(cfg.Tasks))
	}
	return svc.Close()
}

// measureServiceStream runs a longer stream — the benchmark tasks cloned
// under unique IDs — through a BACKGROUND service and reads throughput and
// settlement-latency percentiles off service.Stats.
func measureServiceStream() (*serviceStreamStats, error) {
	const clones = 48
	cfg := marketBenchConfig()
	svc, err := service.New(service.Config{
		Group:      cfg.Group,
		Population: cfg.Population,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < clones; i++ {
		base := cfg.Tasks[i%len(cfg.Tasks)]
		inst := *base.Instance
		inst.Task.ID = fmt.Sprintf("stream-%d", i)
		if err := svc.SubmitTask(market.TaskSpec{Instance: &inst, Enroll: base.Enroll}); err != nil {
			return nil, err
		}
	}
	settled := 0
	for settled < clones {
		if err := svc.Err(); err != nil {
			return nil, err
		}
		reports := svc.Poll()
		if len(reports) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		for _, st := range reports {
			if st.Err != nil || st.Expired || st.Result == nil || !st.Result.Finalized {
				return nil, fmt.Errorf("service stream: task %s did not finalize", st.ID)
			}
			settled++
		}
	}
	elapsed := time.Since(start)
	stats := svc.Stats()
	if err := svc.Close(); err != nil {
		return nil, err
	}
	return &serviceStreamStats{
		Tasks:           clones,
		QuestionsPerSec: float64(stats.QuestionsSettled) / elapsed.Seconds(),
		P50SettleMs:     float64(stats.P50Settle.Microseconds()) / 1000,
		P99SettleMs:     float64(stats.P99Settle.Microseconds()) / 1000,
	}, nil
}

// Batch-verification benchmark workload: folded PoQoEA verification is
// compared against the per-proof loop at these batch sizes (kept modest so
// regenerating the JSON stays fast; BenchmarkBatchVerify additionally
// measures size 512). The claim fixture itself is shared with
// BenchmarkBatchVerify via task.GenerateClaims, so the committed JSON and
// the Go benchmark always measure the same workload.
var batchBenchSizes = []int{1, 8, 64}

// batchBenchParams is the shared claim shape (see task.GenerateClaims):
// each claim carries Wrong VPKE revelations.
var batchBenchParams = task.ClaimParams{N: 16, NumGolden: 8, Wrong: 4, RangeSize: 4}

// batchBenchClaims builds n distinct quality claims under sk over BN254.
func batchBenchClaims(sk *elgamal.PrivateKey, n int) ([]poqoea.Claim, error) {
	return task.GenerateClaims(sk, n, batchBenchParams, rand.New(rand.NewSource(64)))
}

// fixture builds the paper's ImageNet proving workload over BN254.
type fixture struct {
	sk    *elgamal.PrivateKey
	st    poqoea.Statement
	cts   []elgamal.Ciphertext
	chi   int
	proof *poqoea.Proof
	ct0   elgamal.Ciphertext
	pi0   *vpke.Proof
	val0  int64
}

func newFixture() (*fixture, error) {
	g := group.BN254G1()
	sk, err := elgamal.KeyGen(g, nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(2020))
	inst, err := task.NewImageNet(4000, rng)
	if err != nil {
		return nil, err
	}
	st := inst.Golden.Statement(2)
	answers := append([]int64{}, inst.GroundTruth...)
	for _, gi := range inst.Golden.Indices[:3] {
		answers[gi] = 1 - answers[gi]
	}
	cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, nil)
	if err != nil {
		return nil, err
	}
	chi, proof, err := poqoea.Prove(sk, cts, st, nil)
	if err != nil {
		return nil, err
	}
	plain, pi, err := vpke.Prove(sk, cts[0], 2, nil)
	if err != nil {
		return nil, err
	}
	return &fixture{sk: sk, st: st, cts: cts, chi: chi, proof: proof,
		ct0: cts[0], pi0: pi, val0: plain.Value}, nil
}

// measure runs fn repeatedly for at least minDuration and returns the mean
// per-op time and the allocation volume of one op.
func measure(fn func()) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	iters := 0
	for time.Since(start) < 200*time.Millisecond || iters < 3 {
		fn()
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed / time.Duration(iters), (m1.TotalAlloc - m0.TotalAlloc) / uint64(iters)
}

func tableI(steps int) error {
	fmt.Println("TABLE I — OFF-CHAIN PROVING COST (paper values in parentheses)")
	f, err := newFixture()
	if err != nil {
		return err
	}
	t, mem := measure(func() {
		if _, _, err := vpke.Prove(f.sk, f.ct0, 2, nil); err != nil {
			panic(err)
		}
	})
	fmt.Printf("  Ours     VPKE    %10v %8s   (paper: 3 ms, 53 MB peak)\n", t, fmtMem(mem))
	t, mem = measure(func() {
		if _, _, err := poqoea.Prove(f.sk, f.cts, f.st, nil); err != nil {
			panic(err)
		}
	})
	fmt.Printf("  Ours     PoQoEA  %10v %8s   (paper: 10 ms, 53 MB peak)\n", t, fmtMem(mem))

	// Generic baseline: one decryption circuit, then the 6-golden quality
	// circuit, at the configured size.
	gv, err := buildGeneric(steps, false)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := groth16.Prove(gv.cs, gv.pk, gv.w, nil); err != nil {
		return err
	}
	fmt.Printf("  Generic  VPKE    %10v  (circuit %d constraints; paper: 37 s, 3.9 GB at RSA-OAEP scale)\n",
		time.Since(start).Round(time.Millisecond), gv.cs.NumConstraints())

	gp, err := buildGeneric(steps/2, true)
	if err != nil {
		return err
	}
	start = time.Now()
	if _, err := groth16.Prove(gp.cs, gp.pk, gp.w, nil); err != nil {
		return err
	}
	fmt.Printf("  Generic  PoQoEA  %10v  (circuit %d constraints; paper: 112 s, 10.3 GB)\n\n",
		time.Since(start).Round(time.Millisecond), gp.cs.NumConstraints())
	return nil
}

func tableII(steps int) error {
	fmt.Println("TABLE II — ON-CHAIN VERIFICATION COST (paper values in parentheses)")
	f, err := newFixture()
	if err != nil {
		return err
	}
	t, _ := measure(func() {
		if !vpke.VerifyValue(&f.sk.PublicKey, f.val0, f.ct0, f.pi0) {
			panic("verify failed")
		}
	})
	fmt.Printf("  Ours     VPKE    %10v   (paper: 1 ms)\n", t)
	t, _ = measure(func() {
		if !poqoea.Verify(&f.sk.PublicKey, f.cts, f.chi, f.proof, f.st) {
			panic("verify failed")
		}
	})
	fmt.Printf("  Ours     PoQoEA  %10v   (paper: 2 ms)\n", t)

	gv, err := buildGeneric(steps, false)
	if err != nil {
		return err
	}
	proof, err := groth16.Prove(gv.cs, gv.pk, gv.w, nil)
	if err != nil {
		return err
	}
	t, _ = measure(func() {
		ok, err := groth16.Verify(gv.vk, gv.cs.PublicInputs(gv.w), proof)
		if err != nil || !ok {
			panic("verify failed")
		}
	})
	fmt.Printf("  Generic  VPKE    %10v   (paper: 11 ms with libsnark pairings)\n", t)

	gp, err := buildGeneric(steps/2, true)
	if err != nil {
		return err
	}
	proof, err = groth16.Prove(gp.cs, gp.pk, gp.w, nil)
	if err != nil {
		return err
	}
	t, _ = measure(func() {
		ok, err := groth16.Verify(gp.vk, gp.cs.PublicInputs(gp.w), proof)
		if err != nil || !ok {
			panic("verify failed")
		}
	})
	fmt.Printf("  Generic  PoQoEA  %10v   (paper: 17 ms)\n\n", t)
	return nil
}

type generic struct {
	cs *r1cs.System
	pk *groth16.ProvingKey
	vk *groth16.VerifyingKey
	w  r1cs.Witness
}

func buildGeneric(steps int, quality bool) (*generic, error) {
	cs := r1cs.NewSystem(groth16.FieldOf())
	w := cs.NewWitness
	var wit r1cs.Witness
	if quality {
		c, err := gadget.BuildPoQoEA(cs, 6, steps)
		if err != nil {
			return nil, err
		}
		wit = w()
		golden := make([]*big.Int, 6)
		answers := make([]*big.Int, 6)
		for i := range golden {
			golden[i] = big.NewInt(1)
			answers[i] = big.NewInt(int64(i % 2))
		}
		c.AssignPoQoEA(wit, big.NewInt(42), answers, golden)
	} else {
		c, err := gadget.BuildVPKE(cs, steps)
		if err != nil {
			return nil, err
		}
		wit = w()
		c.AssignVPKE(wit, big.NewInt(42), big.NewInt(1), steps)
	}
	pk, vk, err := groth16.Setup(cs, nil)
	if err != nil {
		return nil, err
	}
	return &generic{cs: cs, pk: pk, vk: vk, w: wit}, nil
}

func tableIII() error {
	fmt.Println("TABLE III — ON-CHAIN HANDLING FEES, ImageNet task (paper values in parentheses)")
	prices := gas.PaperPrices()
	row := func(label string, g uint64, paper string) {
		fmt.Printf("  %-42s %-10s %-7s (paper: %s)\n",
			label, gas.FormatGas(g), gas.FormatUSD(prices.USD(g)), paper)
	}
	best, err := runImageNet("best")
	if err != nil {
		return err
	}
	worst, err := runImageNet("worst")
	if err != nil {
		return err
	}
	row("Publish task (by requester)",
		best.GasByMethod["deploy"]+best.GasByMethod["publish"], "~1293 k, $0.22")
	row("Submit answers (by worker)",
		(best.GasByMethod["commit"]+best.GasByMethod["reveal"])/4, "~2830 k, $0.48")
	row("Verify PoQoEA to reject an answer",
		worst.GasByMethod["evaluate"]/4, "~180 k, $0.03")
	row("Overall (best-case: reject no submission)", best.GasTotal, "~12164 k, $2.09")
	row("Overall (worst-case: reject all submissions)", worst.GasTotal, "~12877 k, $2.22")
	fmt.Println()
	return nil
}

func runImageNet(scenario string) (*sim.Result, error) {
	rng := rand.New(rand.NewSource(2020))
	inst, err := task.NewImageNet(4000, rng)
	if err != nil {
		return nil, err
	}
	var models []worker.Model
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		if scenario == "best" {
			models = append(models, worker.Perfect(name, inst.GroundTruth))
			continue
		}
		bad := append([]int64{}, inst.GroundTruth...)
		for _, gi := range inst.Golden.Indices[:3] {
			bad[gi] = 1 - bad[gi]
		}
		golden := make(map[int]bool)
		for _, gi := range inst.Golden.Indices {
			golden[gi] = true
		}
		flip, skipped := 0, 0
		for ; ; flip++ {
			if !golden[flip] {
				if skipped == i {
					break
				}
				skipped++
			}
		}
		bad[flip] = 1 - bad[flip]
		badCopy := bad
		models = append(models, worker.Model{
			Name:     name,
			Strategy: protocol.StrategyHonest,
			Answers: func(qs []task.Question, rangeSize int64) []int64 {
				out := make([]int64, len(badCopy))
				copy(out, badCopy)
				return out
			},
		})
	}
	res, err := sim.Run(sim.Config{
		Instance: inst,
		Group:    group.BN254G1(),
		Workers:  models,
		Seed:     2020,
	})
	if err != nil {
		return nil, err
	}
	if !res.Finalized {
		return nil, fmt.Errorf("scenario %s did not finalize", scenario)
	}
	return res, nil
}

func headlineClaim() error {
	fmt.Println("HEADLINE — decentralized handling cost vs MTurk's fee")
	best, err := runImageNet("best")
	if err != nil {
		return err
	}
	worst, err := runImageNet("worst")
	if err != nil {
		return err
	}
	prices := gas.PaperPrices()
	lo, hi := prices.USD(best.GasTotal), prices.USD(worst.GasTotal)
	fmt.Printf("  Dragoon on-chain handling cost: %s – %s per ImageNet task\n",
		gas.FormatUSD(lo), gas.FormatUSD(hi))
	fmt.Println("  MTurk handling fee for the same task: ≥ $4.00 (paper §VI)")
	if hi < 4 {
		fmt.Println("  ⇒ headline claim REPRODUCED: decentralization is cheaper for the users")
	} else {
		fmt.Println("  ⇒ headline claim NOT reproduced")
	}
	fmt.Println()
	return nil
}

func groth16Sweep() error {
	fmt.Println("SWEEP — Groth16 cost vs circuit size (the cost of generality)")
	fmt.Println("  constraints  setup      prove      verify")
	for _, steps := range []int{128, 512, 2048, 8192} {
		cs := r1cs.NewSystem(groth16.FieldOf())
		c, err := gadget.BuildVPKE(cs, steps)
		if err != nil {
			return err
		}
		w := cs.NewWitness()
		c.AssignVPKE(w, big.NewInt(7), big.NewInt(1), steps)
		t0 := time.Now()
		pk, vk, err := groth16.Setup(cs, nil)
		if err != nil {
			return err
		}
		setup := time.Since(t0)
		t0 = time.Now()
		proof, err := groth16.Prove(cs, pk, w, nil)
		if err != nil {
			return err
		}
		prove := time.Since(t0)
		t0 = time.Now()
		ok, err := groth16.Verify(vk, cs.PublicInputs(w), proof)
		if err != nil || !ok {
			return fmt.Errorf("verify failed at %d steps", steps)
		}
		verify := time.Since(t0)
		fmt.Printf("  %10d  %-9s  %-9s  %-9s\n", cs.NumConstraints(),
			setup.Round(time.Millisecond), prove.Round(time.Millisecond),
			verify.Round(time.Millisecond))
	}
	fmt.Println("  (prove time is ~linear in constraints: extrapolate to the paper's")
	fmt.Println("   RSA-OAEP-scale circuit to recover the 37 s / 112 s of Table I)")
	fmt.Println()
	return nil
}

func fmtMem(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%d MB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%d KB", b>>10)
	default:
		return fmt.Sprintf("%d B", b)
	}
}
