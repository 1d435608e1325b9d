package contract_test

import (
	"math/rand"
	"runtime"
	"testing"

	"dragoon/internal/contract"
	"dragoon/internal/elgamal"
	"dragoon/internal/gas"
	"dragoon/internal/poqoea"
	"dragoon/internal/task"
	"dragoon/internal/vpke"
)

// evaluateRun is one evaluate transaction over six wrong golden answers:
// its receipt gas and the metered cost of verifying each revelation as
// sent (valid) and with its value corrupted (invalid).
type evaluateRun struct {
	gas            uint64
	valid, invalid []uint64
}

// runEvaluate rejects a worker who got all six golden standards wrong with
// an honest PoQoEA proof whose revelation `corrupt` (if ≥ 0) claims another
// wrong value, with the work pool sized to workers.
func runEvaluate(t *testing.T, corrupt, workers int) evaluateRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))

	h := newHarness(t, 1)
	inst, err := task.Generate(task.GenerateParams{
		ID: "h", N: 10, RangeSize: 3, NumGolden: 6, Workers: 1,
		Threshold: 2, Budget: 50,
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	h.inst = inst
	// Nonzero wrong answers, so the corrupted value (answer+3) encodes to
	// calldata with the same zero-byte pattern in every run.
	answers := append([]int64{}, inst.GroundTruth...)
	for _, gi := range inst.Golden.Indices {
		answers[gi] = 1
		if inst.GroundTruth[gi] == 1 {
			answers[gi] = 2
		}
	}
	rv := evaluateSetup(t, h, answers)
	h.mustOK(h.send(h.requester, contract.MethodGolden, h.goldenMsg().Marshal()))

	cts := make([]elgamal.Ciphertext, len(rv.Cts))
	for i, raw := range rv.Cts {
		if cts[i], err = elgamal.UnmarshalCiphertext(h.g, raw); err != nil {
			t.Fatal(err)
		}
	}
	chi, pf, err := poqoea.Prove(h.sk, cts, inst.Golden.Statement(inst.Task.RangeSize), h.rnd)
	if err != nil {
		t.Fatal(err)
	}
	if chi != 0 || len(pf.Wrong) != 6 {
		t.Fatalf("chi = %d with %d revelations, want 0 with 6", chi, len(pf.Wrong))
	}

	run := evaluateRun{}
	cost := func(w poqoea.WrongAnswer, value int64) uint64 {
		sc := &scanCounter{Group: h.g}
		vpke.VerifyValue(&elgamal.PublicKey{Group: sc, H: h.sk.H}, value, cts[w.Index], w.Proof)
		return sc.adds*gas.EcAdd + sc.muls*gas.EcMul
	}
	msg := &contract.EvaluateMsg{Worker: "w1", Chi: chi}
	for j, w := range pf.Wrong {
		run.valid = append(run.valid, cost(w, w.Plain.Value))
		run.invalid = append(run.invalid, cost(w, w.Plain.Value+3))
		entry := contract.WrongEntry{
			QIdx: w.Index, Ct: rv.Cts[w.Index], InRange: true,
			Value: w.Plain.Value, Proof: vpke.MarshalProof(h.g, w.Proof),
		}
		if j == corrupt {
			entry.Value += 3
		}
		msg.Wrong = append(msg.Wrong, entry)
	}
	r := h.send(h.requester, contract.MethodEvaluate, msg.Marshal())
	h.mustOK(r)
	wantPaid := inst.Task.Reward()
	if corrupt < 0 {
		wantPaid = 0
	}
	if got := h.led.Balance("w1"); got != wantPaid {
		t.Fatalf("corrupt=%d: worker balance %d, want %d", corrupt, got, wantPaid)
	}
	run.gas = r.GasUsed
	return run
}

// TestEvaluateGasIsSequentialSum: on-chain PoQoEA verification checks the
// revelations in order on one goroutine and stops at the first invalid
// one, so an evaluate invalid at revelation i pays exactly for the valid
// revelations before it plus the failing check — whatever the work-pool
// size, and without racing on the transaction's gas counter (run under
// -race).
func TestEvaluateGasIsSequentialSum(t *testing.T) {
	base := runEvaluate(t, 0, 1)
	allValid := runEvaluate(t, -1, 1).gas
	for _, workers := range []int{1, 4} {
		if got := runEvaluate(t, -1, workers).gas; got != allValid {
			t.Errorf("workers=%d: all-valid evaluate charged %d gas, sequential run %d",
				workers, got, allValid)
		}
		for i := 0; i < 6; i++ {
			run := runEvaluate(t, i, workers)
			// gas(i) − gas(0) = Σ_{j<i} valid_j + invalid_i − invalid_0.
			want := base.gas - base.invalid[0] + run.invalid[i]
			for j := 0; j < i; j++ {
				want += run.valid[j]
			}
			if run.gas != want {
				t.Errorf("workers=%d, invalid at %d: charged %d gas, sequential sum %d",
					workers, i, run.gas, want)
			}
		}
	}
}
