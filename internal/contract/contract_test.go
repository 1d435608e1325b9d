package contract_test

import (
	"io"
	"math/rand"
	"strings"
	"testing"

	"dragoon/internal/chain"
	"dragoon/internal/commit"
	"dragoon/internal/contract"
	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/poqoea"
	"dragoon/internal/task"
	"dragoon/internal/vpke"
)

// harness drives the contract directly (below the protocol clients),
// so tests can send malformed and out-of-window messages.
type harness struct {
	t     *testing.T
	chain *chain.Chain
	led   *ledger.Ledger
	g     group.Group
	sk    *elgamal.PrivateKey
	inst  *task.Instance
	gkey  commit.Key
	// rnd seeds every key, encryption, commitment and proof the harness
	// makes, so two identical runs send identical calldata and pay
	// identical gas.
	rnd io.Reader

	requester chain.Address
}

func newHarness(t *testing.T, workers int) *harness {
	t.Helper()
	g := group.TestSchnorr()
	rnd := drbg.New(99, "contract-harness")
	sk, err := elgamal.KeyGen(g, rnd)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	inst, err := task.Generate(task.GenerateParams{
		ID: "h", N: 8, RangeSize: 3, NumGolden: 2, Workers: workers,
		Threshold: 2, Budget: ledger.Amount(workers) * 50,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.New()
	led.Mint("req", 1000)
	ch := chain.New(led, nil)
	if _, err := ch.Deploy("h", contract.New(g), contract.DeployCodeSize, "req"); err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, chain: ch, led: led, g: g, sk: sk, inst: inst, rnd: rnd, requester: "req"}
}

// send submits a tx and mines a round, returning its receipt.
func (h *harness) send(from chain.Address, method string, data []byte) *chain.Receipt {
	h.t.Helper()
	h.chain.Submit(&chain.Tx{From: from, Contract: "h", Method: method, Data: data})
	rs, err := h.chain.MineRound()
	if err != nil {
		h.t.Fatalf("MineRound: %v", err)
	}
	if len(rs) != 1 {
		h.t.Fatalf("got %d receipts", len(rs))
	}
	return rs[0]
}

// sendMany submits several txs into a single round and returns the
// receipts in execution order.
func (h *harness) sendMany(txs ...*chain.Tx) []*chain.Receipt {
	h.t.Helper()
	for _, tx := range txs {
		tx.Contract = "h"
		h.chain.Submit(tx)
	}
	rs, err := h.chain.MineRound()
	if err != nil {
		h.t.Fatalf("MineRound: %v", err)
	}
	if len(rs) != len(txs) {
		h.t.Fatalf("got %d receipts, want %d", len(rs), len(txs))
	}
	return rs
}

// mustOK / mustRevert assert the outcome of a receipt.
func (h *harness) mustOK(r *chain.Receipt) {
	h.t.Helper()
	if r.Reverted() {
		h.t.Fatalf("unexpected revert: %v", r.Err)
	}
}

func (h *harness) mustRevert(r *chain.Receipt, substr string) {
	h.t.Helper()
	if !r.Reverted() {
		h.t.Fatalf("expected revert containing %q", substr)
	}
	if !strings.Contains(r.Err.Error(), substr) {
		h.t.Fatalf("revert %q does not contain %q", r.Err, substr)
	}
}

func (h *harness) publishMsg() *contract.PublishMsg {
	key, err := commit.NewKey(h.rnd)
	if err != nil {
		h.t.Fatal(err)
	}
	h.gkey = key
	return &contract.PublishMsg{
		N:            h.inst.Task.N(),
		Budget:       h.inst.Task.Budget,
		Workers:      h.inst.Task.Workers,
		RangeSize:    h.inst.Task.RangeSize,
		Threshold:    h.inst.Task.Threshold,
		PubKey:       h.g.Marshal(h.sk.H),
		CommGolden:   commit.Commit(h.inst.Golden.Marshal(), key),
		CommitRounds: 16,
	}
}

func (h *harness) publish() {
	h.t.Helper()
	h.mustOK(h.send(h.requester, contract.MethodPublish, h.publishMsg().Marshal()))
}

// workerSubmission prepares a commit+reveal pair for the given answers.
func (h *harness) workerSubmission(answers []int64) (*contract.CommitMsg, *contract.RevealMsg) {
	h.t.Helper()
	cts := make([][]byte, len(answers))
	for i, a := range answers {
		ct, _, err := h.sk.Encrypt(a, h.rnd)
		if err != nil {
			h.t.Fatal(err)
		}
		cts[i] = elgamal.MarshalCiphertext(h.g, ct)
	}
	key, err := commit.NewKey(h.rnd)
	if err != nil {
		h.t.Fatal(err)
	}
	reveal := &contract.RevealMsg{Cts: cts, Key: key}
	return &contract.CommitMsg{Comm: reveal.Commitment(key)}, reveal
}

func TestPublishValidation(t *testing.T) {
	h := newHarness(t, 1)
	msg := h.publishMsg()
	msg.Workers = 0
	h.mustRevert(h.send(h.requester, contract.MethodPublish, msg.Marshal()), "invalid task parameters")

	msg = h.publishMsg()
	msg.Budget = 0
	h.mustRevert(h.send(h.requester, contract.MethodPublish, msg.Marshal()), "budget")

	msg = h.publishMsg()
	msg.PubKey = []byte{1, 2, 3}
	h.mustRevert(h.send(h.requester, contract.MethodPublish, msg.Marshal()), "public key")

	// Insufficient balance: budget exceeds the requester's coins.
	msg = h.publishMsg()
	msg.Budget = 100000
	h.mustRevert(h.send(h.requester, contract.MethodPublish, msg.Marshal()), "nofund")

	h.publish()
	h.mustRevert(h.send(h.requester, contract.MethodPublish, h.publishMsg().Marshal()), "already published")
	if got := h.led.Escrow("h"); got != h.inst.Task.Budget {
		t.Errorf("escrow = %d, want %d", got, h.inst.Task.Budget)
	}
}

func TestCommitPhaseRules(t *testing.T) {
	h := newHarness(t, 2)
	h.publish()

	cm, _ := h.workerSubmission(h.inst.GroundTruth)
	h.mustOK(h.send("w1", contract.MethodCommit, cm.Marshal()))
	// Same worker again.
	h.mustRevert(h.send("w1", contract.MethodCommit, cm.Marshal()), "already committed")
	// Duplicate commitment from another worker: the copy-paste defence.
	h.mustRevert(h.send("w2", contract.MethodCommit, cm.Marshal()), "duplicate commitment")

	cm2, _ := h.workerSubmission(h.inst.GroundTruth)
	h.mustOK(h.send("w2", contract.MethodCommit, cm2.Marshal()))
	// Phase closed after K=2 distinct commits.
	cm3, _ := h.workerSubmission(h.inst.GroundTruth)
	h.mustRevert(h.send("w3", contract.MethodCommit, cm3.Marshal()), "closed")
}

func TestRevealRules(t *testing.T) {
	h := newHarness(t, 1)
	h.publish()
	cm, rv := h.workerSubmission(h.inst.GroundTruth)

	// Reveal before commits close.
	h.mustRevert(h.send("w1", contract.MethodReveal, rv.Marshal()), "before commits closed")

	h.mustOK(h.send("w1", contract.MethodCommit, cm.Marshal()))

	// All reveal-phase cases land in a single round inside the window.
	bad := &contract.RevealMsg{Cts: rv.Cts} // zero key: opening fails
	rs := h.sendMany(
		&chain.Tx{From: "w9", Method: contract.MethodReveal, Data: rv.Marshal()},
		&chain.Tx{From: "w1", Method: contract.MethodReveal, Data: bad.Marshal()},
		&chain.Tx{From: "w1", Method: contract.MethodReveal, Data: rv.Marshal()},
		&chain.Tx{From: "w1", Method: contract.MethodReveal, Data: rv.Marshal()},
	)
	h.mustRevert(rs[0], "non-committed")
	h.mustRevert(rs[1], "opening failed")
	h.mustOK(rs[2])
	h.mustRevert(rs[3], "already revealed")
}

func TestRevealWindowCloses(t *testing.T) {
	h := newHarness(t, 1)
	h.publish()
	cm, rv := h.workerSubmission(h.inst.GroundTruth)
	h.mustOK(h.send("w1", contract.MethodCommit, cm.Marshal()))
	// Burn rounds until the reveal window has passed.
	for i := 0; i < contract.RevealRounds+1; i++ {
		if _, err := h.chain.MineRound(); err != nil {
			t.Fatal(err)
		}
	}
	h.mustRevert(h.send("w1", contract.MethodReveal, rv.Marshal()), "outside window")
}

// evaluateSetup advances a 1-worker task to the evaluation window with the
// given worker answers revealed; returns the reveal message for hash checks.
func evaluateSetup(t *testing.T, h *harness, answers []int64) *contract.RevealMsg {
	t.Helper()
	h.publish()
	cm, rv := h.workerSubmission(answers)
	h.mustOK(h.send("w1", contract.MethodCommit, cm.Marshal()))
	h.mustOK(h.send("w1", contract.MethodReveal, rv.Marshal()))
	// Pass the rest of the reveal window.
	if _, err := h.chain.MineRound(); err != nil {
		t.Fatal(err)
	}
	return rv
}

func (h *harness) goldenMsg() *contract.GoldenMsg {
	return &contract.GoldenMsg{Golden: h.inst.Golden.Marshal(), Key: h.gkey}
}

func TestGoldenOpeningRules(t *testing.T) {
	h := newHarness(t, 1)
	evaluateSetup(t, h, h.inst.GroundTruth)

	// Not from the requester.
	h.mustRevert(h.send("w1", contract.MethodGolden, h.goldenMsg().Marshal()), "not from requester")

	// Wrong key.
	bad := &contract.GoldenMsg{Golden: h.inst.Golden.Marshal()}
	h.mustRevert(h.send(h.requester, contract.MethodGolden, bad.Marshal()), "opening failed")

	// Wrong payload (different golden standards).
	other := task.Golden{Indices: []int{0}, Answers: []int64{0}}
	bad2 := &contract.GoldenMsg{Golden: other.Marshal(), Key: h.gkey}
	h.mustRevert(h.send(h.requester, contract.MethodGolden, bad2.Marshal()), "opening failed")

	rs := h.sendMany(
		&chain.Tx{From: h.requester, Method: contract.MethodGolden, Data: h.goldenMsg().Marshal()},
		&chain.Tx{From: h.requester, Method: contract.MethodGolden, Data: h.goldenMsg().Marshal()},
	)
	h.mustOK(rs[0])
	h.mustRevert(rs[1], "already revealed")
}

func TestEvaluateRequiresGolden(t *testing.T) {
	h := newHarness(t, 1)
	evaluateSetup(t, h, h.inst.GroundTruth)
	msg := &contract.EvaluateMsg{Worker: "w1", Chi: 0}
	h.mustRevert(h.send(h.requester, contract.MethodEvaluate, msg.Marshal()), "golden standards not revealed")
}

func TestEvaluateConcedePays(t *testing.T) {
	h := newHarness(t, 1)
	evaluateSetup(t, h, h.inst.GroundTruth)
	h.mustOK(h.send(h.requester, contract.MethodGolden, h.goldenMsg().Marshal()))
	msg := &contract.EvaluateMsg{Worker: "w1", Chi: h.inst.Task.Threshold}
	h.mustOK(h.send(h.requester, contract.MethodEvaluate, msg.Marshal()))
	if got := h.led.Balance("w1"); got != h.inst.Task.Reward() {
		t.Errorf("worker balance = %d, want %d", got, h.inst.Task.Reward())
	}
	// Second decision for the same worker.
	h.mustRevert(h.send(h.requester, contract.MethodEvaluate, msg.Marshal()), "already decided")
}

func TestEvaluateInvalidProofPaysWorker(t *testing.T) {
	h := newHarness(t, 1)
	evaluateSetup(t, h, h.inst.GroundTruth) // perfect answers
	h.mustOK(h.send(h.requester, contract.MethodGolden, h.goldenMsg().Marshal()))
	// False report: claim quality 0 with no revelations.
	msg := &contract.EvaluateMsg{Worker: "w1", Chi: 0}
	h.mustOK(h.send(h.requester, contract.MethodEvaluate, msg.Marshal()))
	if got := h.led.Balance("w1"); got != h.inst.Task.Reward() {
		t.Errorf("false-reported worker balance = %d, want %d", got, h.inst.Task.Reward())
	}
}

func TestEvaluateValidProofRejects(t *testing.T) {
	h := newHarness(t, 1)
	// Worker gets every golden standard wrong.
	answers := append([]int64{}, h.inst.GroundTruth...)
	for _, gi := range h.inst.Golden.Indices {
		answers[gi] = (answers[gi] + 1) % h.inst.Task.RangeSize
	}
	rv := evaluateSetup(t, h, answers)
	h.mustOK(h.send(h.requester, contract.MethodGolden, h.goldenMsg().Marshal()))

	// Build the honest PoQoEA rejection.
	st := h.inst.Golden.Statement(h.inst.Task.RangeSize)
	cts := make([]elgamal.Ciphertext, len(rv.Cts))
	for i, raw := range rv.Cts {
		ct, err := elgamal.UnmarshalCiphertext(h.g, raw)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	chi, pf, err := poqoea.Prove(h.sk, cts, st, h.rnd)
	if err != nil {
		t.Fatal(err)
	}
	if chi != 0 {
		t.Fatalf("chi = %d, want 0", chi)
	}
	msg := &contract.EvaluateMsg{Worker: "w1", Chi: chi}
	for _, w := range pf.Wrong {
		msg.Wrong = append(msg.Wrong, contract.WrongEntry{
			QIdx:    w.Index,
			Ct:      rv.Cts[w.Index],
			InRange: w.Plain.InRange,
			Value:   w.Plain.Value,
			Proof:   vpke.MarshalProof(h.g, w.Proof),
		})
	}
	h.mustOK(h.send(h.requester, contract.MethodEvaluate, msg.Marshal()))
	if got := h.led.Balance("w1"); got != 0 {
		t.Errorf("rejected worker was paid %d", got)
	}

	// Finalize: the unspent budget returns to the requester.
	for i := 0; i < contract.EvalRounds; i++ {
		if _, err := h.chain.MineRound(); err != nil {
			t.Fatal(err)
		}
	}
	h.mustOK(h.send("anyone", contract.MethodFinalize, nil))
	if got := h.led.Balance("req"); got != 1000 {
		t.Errorf("requester balance = %d, want full 1000 back", got)
	}
}

func TestEvaluateTamperedCiphertextPays(t *testing.T) {
	h := newHarness(t, 1)
	answers := append([]int64{}, h.inst.GroundTruth...)
	for _, gi := range h.inst.Golden.Indices {
		answers[gi] = (answers[gi] + 1) % h.inst.Task.RangeSize
	}
	rv := evaluateSetup(t, h, answers)
	h.mustOK(h.send(h.requester, contract.MethodGolden, h.goldenMsg().Marshal()))

	// The requester supplies a DIFFERENT ciphertext (one that decrypts to a
	// wrong answer) in place of the worker's actual submission: the stored
	// hash check must catch it, and the worker must be paid.
	otherCt, _, err := h.sk.Encrypt(0, h.rnd)
	if err != nil {
		t.Fatal(err)
	}
	gi := h.inst.Golden.Indices[0]
	plain, pi, err := vpke.Prove(h.sk, otherCt, h.inst.Task.RangeSize, h.rnd)
	if err != nil {
		t.Fatal(err)
	}
	msg := &contract.EvaluateMsg{Worker: "w1", Chi: 0, Wrong: []contract.WrongEntry{{
		QIdx:    gi,
		Ct:      elgamal.MarshalCiphertext(h.g, otherCt),
		InRange: plain.InRange,
		Value:   plain.Value,
		Proof:   vpke.MarshalProof(h.g, pi),
	}}}
	_ = rv
	h.mustOK(h.send(h.requester, contract.MethodEvaluate, msg.Marshal()))
	if got := h.led.Balance("w1"); got != h.inst.Task.Reward() {
		t.Errorf("worker not paid after ciphertext tamper: balance %d", got)
	}
}

func TestOutrangeBogusClaimPays(t *testing.T) {
	h := newHarness(t, 1)
	rv := evaluateSetup(t, h, h.inst.GroundTruth) // all answers in range
	h.mustOK(h.send(h.requester, contract.MethodGolden, h.goldenMsg().Marshal()))

	ct, err := elgamal.UnmarshalCiphertext(h.g, rv.Cts[0])
	if err != nil {
		t.Fatal(err)
	}
	plain, pi, err := vpke.Prove(h.sk, ct, h.inst.Task.RangeSize, h.rnd)
	if err != nil {
		t.Fatal(err)
	}
	// Claim outrange with the honestly-revealed (in-range!) element.
	msg := &contract.OutrangeMsg{
		Worker:  "w1",
		QIdx:    0,
		Ct:      rv.Cts[0],
		Element: h.g.Marshal(plain.Element),
		Proof:   vpke.MarshalProof(h.g, pi),
	}
	h.mustOK(h.send(h.requester, contract.MethodOutrange, msg.Marshal()))
	if got := h.led.Balance("w1"); got != h.inst.Task.Reward() {
		t.Errorf("worker not paid after bogus outrange: balance %d", got)
	}
}

func TestOutrangeValidClaimRejects(t *testing.T) {
	h := newHarness(t, 1)
	answers := append([]int64{}, h.inst.GroundTruth...)
	answers[3] = 77 // out of range {0,1,2}
	rv := evaluateSetup(t, h, answers)
	h.mustOK(h.send(h.requester, contract.MethodGolden, h.goldenMsg().Marshal()))

	ct, err := elgamal.UnmarshalCiphertext(h.g, rv.Cts[3])
	if err != nil {
		t.Fatal(err)
	}
	plain, pi, err := vpke.Prove(h.sk, ct, h.inst.Task.RangeSize, h.rnd)
	if err != nil {
		t.Fatal(err)
	}
	if plain.InRange {
		t.Fatal("expected out-of-range decryption")
	}
	msg := &contract.OutrangeMsg{
		Worker:  "w1",
		QIdx:    3,
		Ct:      rv.Cts[3],
		Element: h.g.Marshal(plain.Element),
		Proof:   vpke.MarshalProof(h.g, pi),
	}
	h.mustOK(h.send(h.requester, contract.MethodOutrange, msg.Marshal()))
	if got := h.led.Balance("w1"); got != 0 {
		t.Errorf("out-of-range worker was paid %d", got)
	}
}

func TestFinalizeWindows(t *testing.T) {
	h := newHarness(t, 1)
	h.publish()
	// Too early: commit phase still open.
	h.mustRevert(h.send("anyone", contract.MethodFinalize, nil), "still open")

	cm, rv := h.workerSubmission(h.inst.GroundTruth)
	h.mustOK(h.send("w1", contract.MethodCommit, cm.Marshal()))
	h.mustOK(h.send("w1", contract.MethodReveal, rv.Marshal()))
	// Evaluation window still open.
	h.mustRevert(h.send("anyone", contract.MethodFinalize, nil), "still open")
	for i := 0; i < contract.EvalRounds+contract.RevealRounds; i++ {
		if _, err := h.chain.MineRound(); err != nil {
			t.Fatal(err)
		}
	}
	h.mustOK(h.send("anyone", contract.MethodFinalize, nil))
	// Silent requester: the revealed worker is paid by default.
	if got := h.led.Balance("w1"); got != h.inst.Task.Reward() {
		t.Errorf("default payment missing: %d", got)
	}
	h.mustRevert(h.send("anyone", contract.MethodFinalize, nil), "already finalized")
}

func TestUnknownMethod(t *testing.T) {
	h := newHarness(t, 1)
	h.mustRevert(h.send("x", "selfdestruct", nil), "unknown method")
}
