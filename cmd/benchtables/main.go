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
// scaling series from which the paper-scale cost extrapolates. Every
// workload comes from internal/benchwork, which the root Go benchmarks and
// TestTableIIIGasBands use too, so -table 3 prints the run that test
// asserts on.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"dragoon/internal/adversary"
	"dragoon/internal/benchwork"
	"dragoon/internal/bn254"
	"dragoon/internal/contract"
	"dragoon/internal/elgamal"
	"dragoon/internal/gas"
	"dragoon/internal/groth16"
	"dragoon/internal/group"
	"dragoon/internal/market"
	"dragoon/internal/poqoea"
	"dragoon/internal/service"
	"dragoon/internal/vpke"
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
	NsPerOp       int64   `json:"ns_per_op"`     // median of jsonSamples samples
	NsPerOpMin    int64   `json:"ns_per_op_min"` // fastest sample
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
	// ParallelWorkers is the pool size of the parallel rows (the -workers
	// flag; never 1, so Speedups is never empty).
	ParallelWorkers int `json:"parallel_workers"`
	// SingleCore flags a NumCPU==1 host: the Speedups map then quantifies
	// the pool's overhead (values ≈ or below 1), NOT parallel scaling —
	// without this flag such runs read as performance regressions.
	SingleCore bool                  `json:"single_core"`
	Results    []parallelBenchResult `json:"results"`
	// Speedups is sequential-vs-pool for each operation (workers=1 median
	// ns over workers=ParallelWorkers median ns).
	Speedups map[string]float64 `json:"speedups"`
	// BatchSpeedups is the ALGORITHMIC speedup of folded verification over
	// per-proof verification at each batch size, measured at workers=1 so
	// it is independent of core count ("batch=64": 3 means one fold over 64
	// claims verifies 3x faster per question than 64 per-proof calls).
	BatchSpeedups map[string]float64 `json:"batch_speedups"`
	// ServiceStream reports the streaming service's throughput and
	// settlement-latency percentiles (see serviceStreamStats), the medians
	// of jsonSamples runs at the default pool size, alongside the
	// service_stream op rows.
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
	f, err := benchwork.WideProofs()
	if err != nil {
		return err
	}
	// A quarter of BenchmarkParallel_Groth16_Prove's circuit, so the report
	// regenerates in seconds.
	g16, err := benchwork.VPKECircuit(256)
	if err == nil {
		err = g16.Setup()
	}
	if err != nil {
		return err
	}
	marketCfg, err := benchwork.Marketplace()
	if err != nil {
		return err
	}
	maxBatch := batchBenchSizes[len(batchBenchSizes)-1]
	claimKey, batchClaims, err := benchwork.Claims(maxBatch)
	if err != nil {
		return err
	}
	adversaryMatrix := adversary.ParticipantMatrix()
	// Variable-base scalar-mul fixture: an off-generator point (so no
	// fixed-base table applies) and a full-width scalar.
	scalarMulBase := bn254.G1Generator().ScalarMul(big.NewInt(987654321))
	scalarMulK := new(big.Int).Rsh(bn254.Order(), 1)
	marketQuestions := benchwork.MarketTasks * benchwork.MarketQuestions
	decryptTable := elgamal.NewShortLogTable(f.Key.Group, f.Statement.RangeSize)

	ops := []benchOp{
		{"poqoea_prove", len(f.Cts), func() {
			if _, _, err := poqoea.Prove(f.Key, f.Cts, f.Statement, nil); err != nil {
				panic(err)
			}
		}},
		// decrypt_many is the requester's unit of decryption: one
		// DecryptMany span, every ciphertext under one key, which runs in
		// lane groups of eight where the CPU has the lane kernel.
		{"decrypt_many", len(f.Cts), func() { f.Key.DecryptMany(decryptTable, f.Cts) }},
		{"poqoea_verify", len(f.Cts), func() {
			if !poqoea.Verify(&f.Key.PublicKey, f.Cts, f.Chi, f.Proof, f.Statement) {
				panic("verify failed")
			}
		}},
		{"encrypt_answers", len(f.Cts), func() {
			if _, err := poqoea.EncryptAnswers(&f.Key.PublicKey, f.Answers, nil); err != nil {
				panic(err)
			}
		}},
		// scalar_mul_limb times one variable-base GLV scalar multiplication
		// on BN254 G1, which runs on the Montgomery-limb Fp kernels.
		{"scalar_mul_limb", 0, func() { scalarMulBase.ScalarMul(scalarMulK) }},
		{"groth16_prove", 0, func() {
			if _, err := groth16.Prove(g16.CS, g16.PK, g16.Witness, nil); err != nil {
				panic(err)
			}
		}},
		{"chain_execute_m1", 1 * benchwork.ExecTxsPerTask, must(benchwork.ExecRound(1))},
		{"chain_execute_m8", 8 * benchwork.ExecTxsPerTask, must(benchwork.ExecRound(8))},
		{"marketplace_run", marketQuestions, must(func() error { return runMarket(marketCfg) })},
		// The same workload through the streaming service path (admission
		// mempool, settled-state pruning, retention trimming): the delta to
		// marketplace_run is the service's overhead.
		{"service_stream", marketQuestions, must(func() error { return runServiceStream(marketCfg) })},
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
	// Folded vs per-proof verification at each batch size, plus ONE
	// per-proof baseline over the largest batch (per-proof cost is linear
	// in the claim count, so smaller baselines are derived from it). Each
	// batch is a prefix of the one claim set.
	for _, size := range batchBenchSizes {
		claims := batchClaims[:size]
		ops = append(ops, benchOp{fmt.Sprintf("poqoea_verify_batch%d", size), size * benchwork.ClaimQuestions, func() {
			for _, ok := range poqoea.VerifyBatch(&claimKey.PublicKey, claims) {
				if !ok {
					panic("batched verification rejected an honest claim")
				}
			}
		}})
	}
	baselineName := fmt.Sprintf("poqoea_verify_perproof%d", maxBatch)
	ops = append(ops, benchOp{baselineName, maxBatch * benchwork.ClaimQuestions, func() {
		for _, c := range batchClaims {
			if !poqoea.Verify(&claimKey.PublicKey, c.Cts, c.Chi, c.Proof, c.Statement) {
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
		ParallelWorkers: parWorkers,
		SingleCore:      runtime.NumCPU() == 1,
		Speedups:        map[string]float64{},
		BatchSpeedups:   map[string]float64{},
	}
	// Each op's samples alternate between the two pool sizes, so a slow
	// drift in host load reaches both sides of its speedup alike.
	pools := []int{1, parWorkers}
	rows := make([][]parallelBenchResult, len(pools))
	seqNs := map[string]int64{}
	for _, op := range ops {
		samples := make([][]time.Duration, len(pools))
		for s := 0; s < jsonSamples; s++ {
			for i, workers := range pools {
				prev := runtime.GOMAXPROCS(workers)
				samples[i] = append(samples[i], sample(op.fn))
				runtime.GOMAXPROCS(prev)
			}
		}
		for i, workers := range pools {
			slices.Sort(samples[i])
			t := samples[i][jsonSamples/2]
			r := parallelBenchResult{
				Name:       op.name,
				Workers:    workers,
				Questions:  op.questions,
				NsPerOp:    t.Nanoseconds(),
				NsPerOpMin: samples[i][0].Nanoseconds(),
			}
			if op.questions > 0 {
				r.NsPerQuestion = float64(t.Nanoseconds()) / float64(op.questions)
			}
			rows[i] = append(rows[i], r)
			if workers == 1 {
				seqNs[op.name] = t.Nanoseconds()
			} else if seq := seqNs[op.name]; seq > 0 && t.Nanoseconds() > 0 {
				report.Speedups[op.name] = float64(seq) / float64(t.Nanoseconds())
			}
		}
	}
	report.Results = slices.Concat(rows...)
	// Algorithmic batch speedups at workers=1: per-proof cost scales
	// linearly with the claim count, so every size's baseline derives from
	// the one measured per-proof sweep over the largest batch.
	if base := seqNs[baselineName]; base > 0 {
		for _, size := range batchBenchSizes {
			if t := seqNs[fmt.Sprintf("poqoea_verify_batch%d", size)]; t > 0 {
				report.BatchSpeedups[fmt.Sprintf("batch=%d", size)] =
					float64(base) / float64(maxBatch) * float64(size) / float64(t)
			}
		}
	}

	stream, err := measureServiceStream(marketCfg)
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

// runMarket runs the marketplace workload as one batch and fails unless
// every task finalizes.
func runMarket(cfg market.Config) error {
	res, err := market.Run(cfg)
	if err != nil {
		return err
	}
	for _, tr := range res.Tasks {
		if !tr.Finalized {
			return fmt.Errorf("marketplace task %s did not finalize", tr.ID)
		}
	}
	return nil
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

// measureServiceStream runs jsonSamples longer streams — the marketplace
// tasks cloned under unique IDs — each through a fresh BACKGROUND service,
// and reports the median of each figure over the runs (a single run's
// throughput varies by a quarter between runs of the same code).
func measureServiceStream(cfg market.Config) (*serviceStreamStats, error) {
	const clones = 48
	var qps, p50, p99 []float64
	for s := 0; s < jsonSamples; s++ {
		elapsed, stats, err := streamOnce(cfg, clones)
		if err != nil {
			return nil, err
		}
		qps = append(qps, float64(stats.QuestionsSettled)/elapsed.Seconds())
		p50 = append(p50, float64(stats.P50Settle.Microseconds())/1000)
		p99 = append(p99, float64(stats.P99Settle.Microseconds())/1000)
	}
	median := func(xs []float64) float64 {
		slices.Sort(xs)
		return xs[len(xs)/2]
	}
	return &serviceStreamStats{
		Tasks:           clones,
		QuestionsPerSec: median(qps),
		P50SettleMs:     median(p50),
		P99SettleMs:     median(p99),
	}, nil
}

// streamOnce submits clones copies of the marketplace tasks to a new
// background service, waits until every one has settled, and returns the
// wall time from the first submission and the service's final stats.
func streamOnce(cfg market.Config, clones int) (time.Duration, service.Stats, error) {
	svc, err := service.New(service.Config{
		Group:      cfg.Group,
		Population: cfg.Population,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return 0, service.Stats{}, err
	}
	defer svc.Close()
	start := time.Now()
	for i := 0; i < clones; i++ {
		base := cfg.Tasks[i%len(cfg.Tasks)]
		inst := *base.Instance
		inst.Task.ID = fmt.Sprintf("stream-%d", i)
		if err := svc.SubmitTask(market.TaskSpec{Instance: &inst, Enroll: base.Enroll}); err != nil {
			return 0, service.Stats{}, err
		}
	}
	settled := 0
	for settled < clones {
		if err := svc.Err(); err != nil {
			return 0, service.Stats{}, err
		}
		reports := svc.Poll()
		if len(reports) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		for _, st := range reports {
			if st.Err != nil || st.Expired || st.Result == nil || !st.Result.Finalized {
				return 0, service.Stats{}, fmt.Errorf("service stream: task %s did not finalize", st.ID)
			}
			settled++
		}
	}
	elapsed := time.Since(start)
	stats := svc.Stats()
	return elapsed, stats, svc.Close()
}

// batchBenchSizes are the batch sizes the -json report compares folded
// against per-proof verification at, kept modest so regenerating the JSON
// stays fast; BenchmarkBatchVerify additionally measures size 512.
var batchBenchSizes = []int{1, 8, 64}

// benchOp is one operation of the -json report; questions scales its
// ns_per_question (0 for ops without a question count).
type benchOp struct {
	name      string
	questions int
	fn        func()
}

// must adapts an op that returns an error to the measured form; a failing
// op panics, aborting the run with its error.
func must(op func() error) func() {
	return func() {
		if err := op(); err != nil {
			panic(err)
		}
	}
}

// jsonSamples is how many samples each -json row takes; its ns_per_op is
// their median. On a shared 2-vCPU host one 200-ms mean can differ 2×
// between back-to-back reports; the median of five 40-ms samples discards
// such outliers, and the lazy set-up the first sample carries, in about the
// same time per row.
const (
	jsonSamples   = 5
	jsonSampleMin = 40 * time.Millisecond
)

// sample returns the mean per-op time of fn over at least jsonSampleMin
// and one op.
func sample(fn func()) time.Duration {
	start := time.Now()
	iters := 0
	for iters == 0 || time.Since(start) < jsonSampleMin {
		fn()
		iters++
	}
	return time.Since(start) / time.Duration(iters)
}

// measure runs fn repeatedly for at least 200 ms and three ops and returns
// the mean per-op time and the allocation volume of one op.
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
	f, err := benchwork.ImageNetProofs()
	if err != nil {
		return err
	}
	t, mem := measure(func() {
		if _, _, err := vpke.Prove(f.Key, f.Cts[0], f.Statement.RangeSize, nil); err != nil {
			panic(err)
		}
	})
	fmt.Printf("  Ours     VPKE    %10v %8s   (paper: 3 ms, 53 MB peak)\n", t, fmtMem(mem))
	t, mem = measure(func() {
		if _, _, err := poqoea.Prove(f.Key, f.Cts, f.Statement, nil); err != nil {
			panic(err)
		}
	})
	fmt.Printf("  Ours     PoQoEA  %10v %8s   (paper: 10 ms, 53 MB peak)\n", t, fmtMem(mem))

	// Generic baseline: one decryption circuit, then the 6-golden quality
	// circuit, at the configured size.
	for _, row := range genericRows(steps, "37 s, 3.9 GB at RSA-OAEP scale", "112 s, 10.3 GB") {
		c, err := row.build(row.steps)
		if err == nil {
			err = c.Setup()
		}
		if err != nil {
			return err
		}
		start := time.Now()
		if err := c.Prove(); err != nil {
			return err
		}
		fmt.Printf("  Generic  %s  %10v  (circuit %d constraints; paper: %s)\n",
			row.label, time.Since(start).Round(time.Millisecond), c.CS.NumConstraints(), row.paper)
	}
	fmt.Println()
	return nil
}

func tableII(steps int) error {
	fmt.Println("TABLE II — ON-CHAIN VERIFICATION COST (paper values in parentheses)")
	f, err := benchwork.ImageNetProofs()
	if err != nil {
		return err
	}
	t, _ := measure(func() {
		if !vpke.VerifyValue(&f.Key.PublicKey, f.Dec.Value, f.Cts[0], f.DecProof) {
			panic("verify failed")
		}
	})
	fmt.Printf("  Ours     VPKE    %10v   (paper: 1 ms)\n", t)
	t, _ = measure(func() {
		if !poqoea.Verify(&f.Key.PublicKey, f.Cts, f.Chi, f.Proof, f.Statement) {
			panic("verify failed")
		}
	})
	fmt.Printf("  Ours     PoQoEA  %10v   (paper: 2 ms)\n", t)

	for _, row := range genericRows(steps, "11 ms with libsnark pairings", "17 ms") {
		c, err := row.build(row.steps)
		if err == nil {
			err = c.Setup()
		}
		if err == nil {
			err = c.Prove()
		}
		if err != nil {
			return err
		}
		t, _ = measure(func() {
			ok, err := groth16.Verify(c.VK, c.Public, c.Proof)
			if err != nil || !ok {
				panic("verify failed")
			}
		})
		fmt.Printf("  Generic  %s  %10v   (paper: %s)\n", row.label, t, row.paper)
	}
	fmt.Println()
	return nil
}

// genericRow is one generic-ZKP row of Tables I and II.
type genericRow struct {
	label string
	build func(int) (*benchwork.Circuit, error)
	steps int
	paper string
}

// genericRows are the two baseline circuits at the configured size: one
// decryption, then the 6-golden quality circuit at half the steps per
// decryption, each with the paper's reported value.
func genericRows(steps int, paperVPKE, paperPoQoEA string) []genericRow {
	return []genericRow{
		{"VPKE  ", benchwork.VPKECircuit, steps, paperVPKE},
		{"PoQoEA", benchwork.PoQoEACircuit, steps / 2, paperPoQoEA},
	}
}

func tableIII() error {
	fmt.Println("TABLE III — ON-CHAIN HANDLING FEES, ImageNet task (paper values in parentheses)")
	prices := gas.PaperPrices()
	row := func(label string, g uint64, paper string) {
		fmt.Printf("  %-42s %-10s %-7s (paper: %s)\n",
			label, gas.FormatGas(g), gas.FormatUSD(prices.USD(g)), paper)
	}
	best, err := benchwork.RunImageNet(benchwork.BestCase)
	if err != nil {
		return err
	}
	worst, err := benchwork.RunImageNet(benchwork.WorstCase)
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

	// The same two runs by contract method, so a gas change shows where
	// it landed.
	fmt.Printf("\n  %-10s %12s %12s\n", "gas", "best case", "worst case")
	for _, m := range []string{"deploy", contract.MethodPublish, contract.MethodCommit,
		contract.MethodReveal, contract.MethodGolden, contract.MethodOutrange,
		contract.MethodEvaluate, contract.MethodFinalize} {
		fmt.Printf("  %-10s %12d %12d\n", m, best.GasByMethod[m], worst.GasByMethod[m])
	}
	fmt.Printf("  %-10s %12d %12d\n\n", "total", best.GasTotal, worst.GasTotal)
	return nil
}

func headlineClaim() error {
	fmt.Println("HEADLINE — decentralized handling cost vs MTurk's fee")
	best, err := benchwork.RunImageNet(benchwork.BestCase)
	if err != nil {
		return err
	}
	worst, err := benchwork.RunImageNet(benchwork.WorstCase)
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
	fmt.Println("  constraints  setup      prove      verify     alloc (setup+prove)")
	for _, steps := range []int{128, 512, 2048, 8192} {
		c, err := benchwork.VPKECircuit(steps)
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := c.Setup(); err != nil {
			return err
		}
		setup := time.Since(t0)
		t0 = time.Now()
		if err := c.Prove(); err != nil {
			return err
		}
		prove := time.Since(t0)
		runtime.ReadMemStats(&m1)
		t0 = time.Now()
		ok, err := groth16.Verify(c.VK, c.Public, c.Proof)
		if err != nil || !ok {
			return fmt.Errorf("verify failed at %d steps", steps)
		}
		verify := time.Since(t0)
		fmt.Printf("  %10d  %-9s  %-9s  %-9s  %s\n", c.CS.NumConstraints(),
			setup.Round(time.Millisecond), prove.Round(time.Millisecond),
			verify.Round(time.Millisecond), fmtMem(m1.TotalAlloc-m0.TotalAlloc))
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
