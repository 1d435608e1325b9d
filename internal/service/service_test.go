package service_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dragoon/internal/chain"
	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/market"
	"dragoon/internal/opts"
	"dragoon/internal/protocol"
	"dragoon/internal/service"
	"dragoon/internal/task"
	"dragoon/internal/wire"
	"dragoon/internal/worker"
)

const streamTasks = 8

// diligent is a task-shape-agnostic honest worker (rng-free, so it can be
// shared across tasks and across a snapshot/restore boundary).
func diligent(name string, salt int64) worker.Model {
	return worker.Model{
		Name:     name,
		Strategy: protocol.StrategyHonest,
		Answers: func(qs []task.Question, rangeSize int64) []int64 {
			out := make([]int64, len(qs))
			for i := range out {
				out[i] = (int64(i) + salt) % rangeSize
			}
			return out
		},
	}
}

func outranger(name string) worker.Model {
	return worker.Model{
		Name:     name,
		Strategy: protocol.StrategyHonest,
		Answers: func(qs []task.Question, rangeSize int64) []int64 {
			out := make([]int64, len(qs))
			out[len(out)/2] = rangeSize + 7
			return out
		},
	}
}

// buildStream constructs the same marketplace the batch harness tests use —
// population, instances, policies — as a (service config, spec list) pair.
// Every call returns identical instances and rng states.
func buildStream(t *testing.T) (service.Config, []market.TaskSpec) {
	t.Helper()
	key, err := elgamal.KeyGen(group.TestSchnorr(), drbg.New(77, "stream-shared-key"))
	if err != nil {
		t.Fatal(err)
	}
	population := []worker.Model{
		diligent("dili", 1),
		diligent("mute", 2),
		worker.CopyPaster("copycat"),
		outranger("oor"),
	}
	population[1].Strategy = protocol.StrategyNoReveal

	specs := make([]market.TaskSpec, streamTasks)
	for ti := 0; ti < streamTasks; ti++ {
		inst, err := task.Generate(task.GenerateParams{
			ID: fmt.Sprintf("stream-%d", ti), N: 20, RangeSize: 4, NumGolden: 5,
			Workers: 5, Threshold: 3,
			Budget: ledger.Amount(1000 + 7*ti),
		}, rand.New(rand.NewSource(int64(500+ti))))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(1000 + ti)))
		acc := len(population)
		population = append(population,
			worker.Accurate(fmt.Sprintf("acc%d", ti), inst.GroundTruth, 0.6, rng),
			worker.Bot(fmt.Sprintf("bot%d", ti), rng))
		specs[ti] = market.TaskSpec{
			Instance: inst,
			Enroll:   []int{0, acc, acc + 1, 3, 1, 2},
		}
	}
	specs[4].Policy = protocol.PolicyNoGolden
	specs[5].Policy = protocol.PolicyFalseReport
	specs[6].Policy = protocol.PolicySilent
	specs[7].Enroll = []int{0}

	return service.Config{
		Group:      group.TestSchnorr(),
		Population: population,
		SharedKey:  key,
		Seed:       42,
		Manual:     true,
	}, specs
}

// drain steps a manual service until every submitted task was reported or
// maxRounds passed, collecting the reports by task ID.
func drain(t *testing.T, s *service.Service, want, maxRounds int) map[string]service.TaskStatus {
	t.Helper()
	got := make(map[string]service.TaskStatus, want)
	for r := 0; r < maxRounds && len(got) < want; r++ {
		if err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, st := range s.Poll() {
			if _, dup := got[st.ID]; dup {
				t.Fatalf("task %q reported twice", st.ID)
			}
			got[st.ID] = st
		}
	}
	if len(got) != want {
		t.Fatalf("drained %d reports, want %d", len(got), want)
	}
	return got
}

// TestStreamMatchesBatch is the service's core equivalence claim: tasks
// streamed through a long-lived service — with settled-state pruning and
// retention trimming ON — settle with end-state reports identical to a batch
// market.Run of the same specs.
func TestStreamMatchesBatch(t *testing.T) {
	cfg, specs := buildStream(t)
	batchCfg, batchSpecs := buildStream(t)
	bres, err := market.Run(market.Config{
		Tasks:         batchSpecs,
		Group:         batchCfg.Group,
		Population:    batchCfg.Population,
		SharedKey:     batchCfg.SharedKey,
		Seed:          batchCfg.Seed,
		WorkerBalance: batchCfg.WorkerBalance,
	})
	if err != nil {
		t.Fatal(err)
	}

	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if err := s.SubmitTask(spec); err != nil {
			t.Fatal(err)
		}
	}
	got := drain(t, s, len(specs), 60)
	for ti := range specs {
		want := bres.Tasks[ti]
		st, ok := got[want.ID]
		if !ok {
			t.Fatalf("task %q never settled in the stream", want.ID)
		}
		if st.Err != nil || st.Expired {
			t.Fatalf("task %q: err=%v expired=%v", want.ID, st.Err, st.Expired)
		}
		if !reflect.DeepEqual(*st.Result, want) {
			t.Errorf("task %q: stream result diverges from batch:\n stream %+v\n batch  %+v",
				want.ID, *st.Result, want)
		}
	}
	if err := s.Ledger().CheckConservation(); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.Settled != uint64(len(specs)) || stats.Active != 0 || stats.Expired != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.QuestionsSettled == 0 || stats.P50Settle == 0 {
		t.Fatalf("throughput stats not recorded: %+v", stats)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamPruningEquivalence runs the same stream with aggressive pruning
// and with full retention: settlement reports must be identical — compaction
// is invisible to outcomes.
func TestStreamPruningEquivalence(t *testing.T) {
	run := func(mutate func(*service.Config)) map[string]service.TaskStatus {
		cfg, specs := buildStream(t)
		mutate(&cfg)
		s, err := service.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			if err := s.SubmitTask(spec); err != nil {
				t.Fatal(err)
			}
		}
		got := drain(t, s, len(specs), 60)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	pruned := run(func(c *service.Config) { c.RetainRounds = 4 })
	kept := run(func(c *service.Config) {
		c.KeepSettled = true
		c.RetainRounds = -1
		c.RetainLedgerEvents = -1
	})
	if len(pruned) != len(kept) {
		t.Fatalf("%d pruned reports vs %d kept", len(pruned), len(kept))
	}
	for id, p := range pruned {
		k, ok := kept[id]
		if !ok {
			t.Fatalf("task %q settled only under pruning", id)
		}
		if !reflect.DeepEqual(p, k) {
			t.Errorf("task %q: pruning changed the settlement report:\n pruned %+v\n kept   %+v", id, p, k)
		}
	}
}

// rehydrator maps IDs back to specs for Restore.
func rehydrator(specs []market.TaskSpec) service.Rehydrate {
	return func(id string) (market.TaskSpec, error) {
		for _, spec := range specs {
			if spec.Instance.Task.ID == id {
				return spec, nil
			}
		}
		return market.TaskSpec{}, fmt.Errorf("unknown task %q", id)
	}
}

// rngFreeStream is buildStream restricted to rng-free models: a restored
// service reconstructs answers from the snapshot record, but tasks still
// resolving answers after the restore call freshly-constructed models, so
// exact restart determinism holds for rng-free populations.
func rngFreeStream(t *testing.T, parallelism int) (service.Config, []market.TaskSpec) {
	t.Helper()
	population := []worker.Model{
		diligent("dili", 1),
		diligent("mute", 2),
		worker.CopyPaster("copycat"),
		outranger("oor"),
		diligent("slow", 3),
	}
	population[1].Strategy = protocol.StrategyNoReveal
	specs := make([]market.TaskSpec, 4)
	for ti := range specs {
		inst, err := task.Generate(task.GenerateParams{
			ID: fmt.Sprintf("snap-%d", ti), N: 12, RangeSize: 4, NumGolden: 3,
			Workers: 4, Threshold: 2,
			Budget: ledger.Amount(900 + 11*ti),
		}, rand.New(rand.NewSource(int64(300+ti))))
		if err != nil {
			t.Fatal(err)
		}
		specs[ti] = market.TaskSpec{Instance: inst, Enroll: []int{0, 1, 3, 4}}
	}
	specs[1].Policy = protocol.PolicyFalseReport
	specs[3].Enroll = []int{0, 2, 3, 4}
	return service.Config{
		Group:      group.TestSchnorr(),
		Population: population,
		Seed:       1234,
		Manual:     true,
		Options:    opts.Options{Parallelism: parallelism},
	}, specs
}

// fingerprint renders the chain's retained transcript.
func fingerprint(s *service.Service) string {
	out := ""
	for _, rcpt := range s.Chain().Receipts() {
		status := "ok"
		if rcpt.Err != nil {
			status = "revert:" + rcpt.Err.Error()
		}
		out += fmt.Sprintf("r%d %s %s/%s gas=%d %s\n",
			rcpt.Round, rcpt.Tx.From, rcpt.Tx.Contract, rcpt.Tx.Method, rcpt.GasUsed, status)
	}
	for _, ev := range s.Chain().Events() {
		out += fmt.Sprintf("ev r%d %s %s %x\n", ev.Round, ev.Contract, ev.Name, ev.Data)
	}
	return out
}

// TestSnapshotRestoreMidStream cuts a live stream mid-flight: snapshot,
// restore into a fresh service, continue both to completion, and require the
// restored branch to reproduce the unbroken branch's settlement reports AND
// chain transcript byte-for-byte. Swept at parallelism 1 and NumCPU.
func TestSnapshotRestoreMidStream(t *testing.T) {
	for _, par := range []int{1, runtime.NumCPU()} {
		par := par
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			cfg, specs := rngFreeStream(t, par)
			// Full retention so the two branches' transcripts are
			// comparable end-to-end (trim timing is identical anyway, but
			// the full log makes divergence diagnosable).
			cfg.KeepSettled = true
			cfg.RetainRounds = -1
			cfg.RetainLedgerEvents = -1

			s, err := service.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Staggered admissions: two tasks at round 0, two more later, so
			// the snapshot catches tasks at different lifecycle points.
			for _, spec := range specs[:2] {
				if err := s.SubmitTask(spec); err != nil {
					t.Fatal(err)
				}
			}
			for r := 0; r < 3; r++ {
				if err := s.Step(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			for _, spec := range specs[2:] {
				if err := s.SubmitTask(spec); err != nil {
					t.Fatal(err)
				}
			}
			for r := 0; r < 2; r++ {
				if err := s.Step(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			// Branch A: the unbroken run.
			gotA := drain(t, s, len(specs), 60)
			fpA := fingerprint(s)

			// Branch B: restore and continue.
			restored, err := service.Restore(cfg, snap, rehydrator(specs))
			if err != nil {
				t.Fatal(err)
			}
			gotB := drain(t, restored, len(specs), 60)
			fpB := fingerprint(restored)

			if fpA != fpB {
				t.Fatalf("restored transcript diverges:\n--- unbroken ---\n%s--- restored ---\n%s", fpA, fpB)
			}
			for id, a := range gotA {
				b, ok := gotB[id]
				if !ok {
					t.Fatalf("task %q missing after restore", id)
				}
				if a.Expired || b.Expired || a.Err != nil || b.Err != nil {
					t.Fatalf("task %q did not settle cleanly: %+v vs %+v", id, a, b)
				}
				if !reflect.DeepEqual(*a.Result, *b.Result) {
					t.Errorf("task %q: restored result diverges:\n unbroken %+v\n restored %+v", id, *a.Result, *b.Result)
				}
				if a.AdmittedRound != b.AdmittedRound || a.SettledRound != b.SettledRound {
					t.Errorf("task %q: settlement timing diverges", id)
				}
			}
			if err := restored.Ledger().CheckConservation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotCarriesUnpolledResults: reports delivered before the snapshot
// but never polled must survive the restart.
func TestSnapshotCarriesUnpolledResults(t *testing.T) {
	cfg, specs := rngFreeStream(t, 1)
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if err := s.SubmitTask(spec); err != nil {
			t.Fatal(err)
		}
	}
	// Step until at least one task settled, WITHOUT polling.
	settled := 0
	for r := 0; r < 60 && settled == 0; r++ {
		if err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		settled = int(s.Stats().Settled)
	}
	if settled == 0 {
		t.Fatal("no task settled in 60 rounds")
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := service.Restore(cfg, snap, rehydrator(specs))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, restored, len(specs), 60)
	for _, spec := range specs {
		st, ok := got[spec.Instance.Task.ID]
		if !ok || st.Result == nil {
			t.Fatalf("task %q lost across the restart (status %+v)", spec.Instance.Task.ID, st)
		}
	}
}

// TestBackgroundStream exercises the non-manual mode: a goroutine mines
// whenever work exists, SubmitTask and Poll never block on mining.
func TestBackgroundStream(t *testing.T) {
	cfg, specs := buildStream(t)
	cfg.Manual = false
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if err := s.SubmitTask(spec); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string]service.TaskStatus)
	deadline := time.Now().Add(60 * time.Second)
	for len(got) < len(specs) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d tasks settled before deadline (err=%v)", len(got), len(specs), s.Err())
		}
		for _, st := range s.Poll() {
			got[st.ID] = st
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for id, st := range got {
		if st.Err != nil || st.Expired || st.Result == nil {
			t.Errorf("task %q: %+v", id, st)
		}
	}
	if err := s.Ledger().CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestTaskRoundBudget: a task outliving its round budget is retired as
// expired; the stream keeps going and money is conserved.
func TestTaskRoundBudget(t *testing.T) {
	cfg, specs := rngFreeStream(t, 1)
	cfg.TaskRoundBudget = 1
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitTask(specs[0]); err != nil {
		t.Fatal(err)
	}
	got := drain(t, s, 1, 10)
	st := got[specs[0].Instance.Task.ID]
	if !st.Expired || st.Result != nil {
		t.Fatalf("want expired status, got %+v", st)
	}
	if err := s.Ledger().CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// The expired task's contract survives (escrow safety): submitting a
	// fresh task with the same ID must be rejected, not clobber it.
	if err := s.SubmitTask(specs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	var rejected *service.TaskStatus
	for _, r := range s.Poll() {
		r := r
		if r.Err != nil {
			rejected = &r
		}
	}
	if rejected == nil {
		t.Fatal("duplicate contract ID was admitted over a live contract")
	}
}

// TestSubmitValidation covers the rejection paths.
func TestSubmitValidation(t *testing.T) {
	cfg, specs := rngFreeStream(t, 1)
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitTask(market.TaskSpec{}); err == nil {
		t.Fatal("nil instance accepted")
	}
	if err := s.SubmitTask(specs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitTask(specs[0]); err == nil {
		t.Fatal("duplicate queued ID accepted")
	}
	bad := specs[1]
	bad.Enroll = []int{0, 0}
	if err := s.SubmitTask(bad); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	var rejections int
	for _, st := range s.Poll() {
		if st.Err != nil {
			rejections++
		}
	}
	if rejections != 1 {
		t.Fatalf("want 1 admission rejection, got %d", rejections)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitTask(specs[2]); err != service.ErrClosed {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestPruneOnSettle: settling a task prunes its contract log, so an event
// cursor opened before settlement, which held a real position in that log,
// reports chain.ErrPruned afterwards.
func TestPruneOnSettle(t *testing.T) {
	cfg, specs := rngFreeStream(t, 1)
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cur := s.Chain().Cursor(ledger.ContractID(specs[0].Instance.Task.ID))
	if err := s.SubmitTask(specs[0]); err != nil {
		t.Fatal(err)
	}
	var observed, settled int
	for r := 0; r < 30 && settled == 0; r++ {
		if err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		if evs, err := cur.Poll(); err == nil {
			observed += len(evs)
		}
		for _, st := range s.Poll() {
			if st.Err != nil || st.Expired || st.Result == nil {
				t.Fatalf("task did not settle cleanly: %+v", st)
			}
			settled++
		}
	}
	if settled != 1 || observed == 0 {
		t.Fatalf("settled %d times, cursor saw %d events", settled, observed)
	}
	if _, err := cur.Poll(); !errors.Is(err, chain.ErrPruned) {
		t.Fatalf("cursor over the pruned log: err = %v, want ErrPruned", err)
	}
	if err := s.Ledger().CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsBadSnapshots: a snapshot of any version but 1 fails with
// ErrSnapshotVersion, and every strict prefix of a valid snapshot fails with
// wire.ErrTruncated, never a panic. The snapshot is cut mid-stream, with
// active tasks and unpolled reports, so the prefixes reach every field.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	cfg, specs := rngFreeStream(t, 1)
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs[:2] {
		if err := s.SubmitTask(spec); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 3; r++ {
		if err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range specs[2:] {
		if err := s.SubmitTask(spec); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 60 && s.Stats().Settled == 0; r++ {
		if err := s.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Settled == 0 || st.Active == 0 {
		t.Fatalf("snapshot point has %d settled and %d active tasks, want both", st.Settled, st.Active)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := service.Restore(cfg, snap, rehydrator(specs)); err != nil {
		t.Fatalf("valid snapshot: %v", err)
	}

	for _, v := range []byte{0, 2, 3} {
		bad := append([]byte{v}, snap[1:]...)
		if _, err := service.Restore(cfg, bad, rehydrator(specs)); !errors.Is(err, service.ErrSnapshotVersion) {
			t.Errorf("version %d: err = %v, want ErrSnapshotVersion", v, err)
		}
	}
	for n := 0; n < len(snap); n++ {
		if _, err := service.Restore(cfg, snap[:n], rehydrator(specs)); !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("prefix of %d of %d bytes: err = %v, want wire.ErrTruncated", n, len(snap), err)
		}
	}
}
