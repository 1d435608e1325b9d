package dragoon

import (
	"math/rand"
	"testing"

	"dragoon/internal/benchwork"
	"dragoon/internal/drbg"
	"dragoon/internal/gas"
)

// TestPublicAPICryptoRoundtrip exercises the exported crypto facade exactly
// as a downstream user would, over the production BN254 backend.
func TestPublicAPICryptoRoundtrip(t *testing.T) {
	g := BN254()
	rnd := drbg.New(1, "TestPublicAPICryptoRoundtrip")
	sk, err := KeyGen(g, rnd)
	if err != nil {
		t.Fatalf("KeyGen: %v", err)
	}
	st := QualityStatement{
		GoldenIndices: []int{1, 3, 5},
		GoldenAnswers: []int64{1, 0, 1},
		RangeSize:     2,
	}
	answers := []int64{0, 1, 1, 1, 0, 1, 0, 0} // golden: q1=1 ✓, q3=1 ✗, q5=1 ✓
	if got := Quality(answers, st); got != 2 {
		t.Fatalf("Quality = %d, want 2", got)
	}
	cts, err := EncryptAnswers(&sk.PublicKey, answers, rnd)
	if err != nil {
		t.Fatalf("EncryptAnswers: %v", err)
	}
	chi, proof, err := ProveQuality(sk, cts, st, rnd)
	if err != nil {
		t.Fatalf("ProveQuality: %v", err)
	}
	if chi != 2 {
		t.Fatalf("chi = %d, want 2", chi)
	}
	if !VerifyQuality(&sk.PublicKey, cts, chi, proof, st) {
		t.Fatal("honest quality proof rejected")
	}
	if VerifyQuality(&sk.PublicKey, cts, chi-1, proof, st) {
		t.Fatal("underclaimed quality accepted")
	}

	plain, dp, err := ProveDecryption(sk, cts[0], 2, rnd)
	if err != nil {
		t.Fatalf("ProveDecryption: %v", err)
	}
	if !plain.InRange || plain.Value != 0 {
		t.Fatalf("decryption = %+v", plain)
	}
	if !VerifyDecryption(&sk.PublicKey, 0, cts[0], dp) {
		t.Fatal("decryption proof rejected")
	}
	if VerifyDecryption(&sk.PublicKey, 1, cts[0], dp) {
		t.Fatal("wrong plaintext accepted")
	}
}

// TestTableIIIGasBands asserts the deterministic gas costs land within 3%
// of the paper's Table III rows (publish ≈1293k, submit ≈2830k per worker)
// and that the end-to-end handling fee undercuts MTurk's $4 — the paper's
// headline claim.
func TestTableIIIGasBands(t *testing.T) {
	res := runImageNet(t, benchwork.BestCase)

	within := func(got, want uint64, tol float64) bool {
		diff := float64(got) - float64(want)
		if diff < 0 {
			diff = -diff
		}
		return diff/float64(want) <= tol
	}
	publish := res.GasByMethod["deploy"] + res.GasByMethod["publish"]
	if !within(publish, 1_293_000, 0.03) {
		t.Errorf("publish gas = %d, want ≈1293k (paper Table III)", publish)
	}
	submit := (res.GasByMethod["commit"] + res.GasByMethod["reveal"]) / 4
	if !within(submit, 2_830_000, 0.03) {
		t.Errorf("submit gas = %d, want ≈2830k (paper Table III)", submit)
	}
	usd := PaperPrices().USD(res.GasTotal)
	if usd >= 4.0 {
		t.Errorf("handling fee $%.2f does not undercut MTurk's $4", usd)
	}
	if usd < 1.5 || usd > 3.0 {
		t.Errorf("handling fee $%.2f outside the paper's ~$2.1–2.2 band", usd)
	}

	worst := runImageNet(t, benchwork.WorstCase)
	reject := worst.GasByMethod["evaluate"] / 4
	if !within(reject, 180_000, 0.15) {
		t.Errorf("per-rejection gas = %d, want ≈180k (paper Table III)", reject)
	}
	if worst.GasTotal <= res.GasTotal {
		t.Error("worst case not costlier than best case")
	}
	// Rejected workers paid nothing; deposit returns to the requester.
	for _, o := range worst.Outcomes {
		if o.Paid || !o.Rejected {
			t.Errorf("worst case: worker %s paid=%v rejected=%v", o.Name, o.Paid, o.Rejected)
		}
	}
}

// TestSimulateFacade runs the exported one-call simulation on the test
// group (fast path).
func TestSimulateFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst, err := NewTask(TaskParams{
		ID: "facade", N: 8, RangeSize: 2, NumGolden: 2,
		Workers: 2, Threshold: 2, Budget: 100,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimulationConfig{
		Instance: inst,
		Group:    TestGroup(),
		Workers: []WorkerModel{
			PerfectWorker("w0", inst.GroundTruth),
			PerfectWorker("w1", inst.GroundTruth),
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if !res.Finalized {
		t.Fatal("not finalized")
	}
	ideal := RunIdealFunctionality(inst, IdealInputs(res), HonestRequester)
	for _, o := range res.Outcomes {
		if !o.Paid || !ideal.Paid[o.Addr] {
			t.Errorf("worker %s: paid=%v ideal=%v", o.Name, o.Paid, ideal.Paid[o.Addr])
		}
	}
}

// TestHeadlineClaim cross-checks the abstract's claim with the gas
// schedule: verifying a PoQoEA rejection on-chain costs a few cents, and
// far less than a pre-EIP-1108 SNARK verification (~500k gas for the
// pairings alone).
func TestHeadlineClaim(t *testing.T) {
	worst := runImageNet(t, benchwork.WorstCase)
	reject := worst.GasByMethod["evaluate"] / 4
	if cents := PaperPrices().USD(reject); cents > 0.05 {
		t.Errorf("rejection costs $%.3f, paper says a few cents", cents)
	}
	if snark := gas.PairingCheckCost(4); reject > snark+100_000 {
		t.Errorf("PoQoEA rejection (%d gas) should not exceed SNARK verification (%d gas) by this margin", reject, snark)
	}
}
