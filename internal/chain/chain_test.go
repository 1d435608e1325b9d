package chain_test

import (
	"errors"
	"fmt"
	"math/big"
	"testing"

	"dragoon/internal/chain"
	"dragoon/internal/gas"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
)

// counterContract is a tiny test contract: "inc" increments a stored
// counter; "fail" writes then errors (must revert); "pay" forwards escrow;
// "deposit" freezes coins from the caller.
type counterContract struct{}

func (counterContract) Execute(env *chain.Env, from chain.Address, method string, data []byte) error {
	switch method {
	case "inc":
		n := uint8(0)
		if v, ok := env.StoreGet("n"); ok {
			n = v[0]
		}
		env.StoreSet("n", []byte{n + 1})
		env.Emit("incremented", 1, []byte{n + 1})
		return nil
	case "fail":
		env.StoreSet("n", []byte{99})
		env.Emit("should-not-appear", 0, nil)
		return errors.New("deliberate revert")
	case "deposit":
		return env.Freeze(ledger.AccountID(from), 100)
	case "pay":
		return env.Pay(ledger.AccountID(data), 60)
	default:
		return fmt.Errorf("unknown method %q", method)
	}
}

func newTestChain(t *testing.T, s chain.Scheduler) (*chain.Chain, *ledger.Ledger) {
	t.Helper()
	l := ledger.New()
	l.Mint("alice", 1000)
	l.Mint("bob", 500)
	c := chain.New(l, s)
	if _, err := c.Deploy("ctr", counterContract{}, 100, "alice"); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return c, l
}

func mine(t *testing.T, c *chain.Chain) []*chain.Receipt {
	t.Helper()
	rs, err := c.MineRound()
	if err != nil {
		t.Fatalf("MineRound: %v", err)
	}
	return rs
}

func TestExecuteAndEvents(t *testing.T) {
	c, _ := newTestChain(t, nil)
	c.Submit(&chain.Tx{From: "alice", Contract: "ctr", Method: "inc"})
	c.Submit(&chain.Tx{From: "bob", Contract: "ctr", Method: "inc"})
	rs := mine(t, c)
	if len(rs) != 2 {
		t.Fatalf("got %d receipts, want 2", len(rs))
	}
	for _, r := range rs {
		if r.Reverted() {
			t.Fatalf("unexpected revert: %v", r.Err)
		}
	}
	evs := c.Events()
	if len(evs) != 2 || evs[1].Data[0] != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if c.Round() != 1 {
		t.Errorf("round = %d, want 1", c.Round())
	}
}

func TestRevertRollsBackEverything(t *testing.T) {
	c, l := newTestChain(t, nil)
	c.Submit(&chain.Tx{From: "alice", Contract: "ctr", Method: "inc"})
	mine(t, c)
	c.Submit(&chain.Tx{From: "alice", Contract: "ctr", Method: "fail"})
	rs := mine(t, c)
	if !rs[0].Reverted() {
		t.Fatal("expected revert")
	}
	if len(rs[0].Events) != 0 {
		t.Error("reverted tx leaked events")
	}
	// Counter must still be 1: storage write rolled back.
	c.Submit(&chain.Tx{From: "alice", Contract: "ctr", Method: "inc"})
	mine(t, c)
	evs := c.Events()
	if got := evs[len(evs)-1].Data[0]; got != 2 {
		t.Errorf("counter after revert = %d, want 2", got)
	}
	if err := l.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestLedgerOpsThroughEnv(t *testing.T) {
	c, l := newTestChain(t, nil)
	c.Submit(&chain.Tx{From: "alice", Contract: "ctr", Method: "deposit"})
	mine(t, c)
	if got := l.Escrow("ctr"); got != 100 {
		t.Fatalf("escrow = %d, want 100", got)
	}
	if got := l.Balance("alice"); got != 900 {
		t.Fatalf("alice = %d, want 900", got)
	}
	c.Submit(&chain.Tx{From: "bob", Contract: "ctr", Method: "pay", Data: []byte("bob")})
	mine(t, c)
	if got := l.Balance("bob"); got != 560 {
		t.Fatalf("bob = %d, want 560", got)
	}
	// Escrow is now 40: paying 60 must revert and move nothing.
	c.Submit(&chain.Tx{From: "bob", Contract: "ctr", Method: "pay", Data: []byte("bob")})
	rs := mine(t, c)
	if !rs[0].Reverted() {
		t.Fatal("overdraw should revert")
	}
	if got := l.Balance("bob"); got != 560 {
		t.Fatalf("bob after failed pay = %d, want 560", got)
	}
	if err := l.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestUnknownContractCharged(t *testing.T) {
	c, _ := newTestChain(t, nil)
	c.Submit(&chain.Tx{From: "alice", Contract: "missing", Method: "x"})
	rs := mine(t, c)
	if !rs[0].Reverted() {
		t.Fatal("call to missing contract should fail")
	}
	if rs[0].GasUsed != gas.TxBase {
		t.Errorf("gas = %d, want %d", rs[0].GasUsed, gas.TxBase)
	}
}

func TestDoubleDeployRejected(t *testing.T) {
	c, _ := newTestChain(t, nil)
	if _, err := c.Deploy("ctr", counterContract{}, 1, "alice"); err == nil {
		t.Fatal("expected duplicate-deploy error")
	}
}

// gasOf sums the gas of the retained receipts, of one sender's transactions
// or, with from == "", of all of them.
func gasOf(c *chain.Chain, from chain.Address) uint64 {
	var g uint64
	for _, r := range c.Receipts() {
		if from == "" || r.Tx.From == from {
			g += r.GasUsed
		}
	}
	return g
}

func TestGasAccounting(t *testing.T) {
	c, _ := newTestChain(t, nil)
	before := gasOf(c, "alice") // deployment gas
	wantDeploy := uint64(gas.TxBase + gas.TxCreate + 100*gas.CodeDepositPerByte)
	if before != wantDeploy {
		t.Fatalf("deploy gas = %d, want %d", before, wantDeploy)
	}
	c.Submit(&chain.Tx{From: "alice", Contract: "ctr", Method: "inc", Data: []byte{0, 1}})
	rs := mine(t, c)
	// TxBase + calldata (one zero, one nonzero byte) + SLOAD (miss) +
	// SSTORE set + log(1 topic, 1 byte).
	want := uint64(gas.TxBase + gas.TxDataZero + gas.TxDataNonZero +
		gas.SLoad + gas.SStoreSet + gas.LogBase + gas.LogTopic + gas.LogDataByte)
	if rs[0].GasUsed != want {
		t.Errorf("gas = %d, want %d", rs[0].GasUsed, want)
	}
	if total := gasOf(c, ""); total != before+want {
		t.Errorf("total gas = %d, want %d", total, before+want)
	}
}

// reverseScheduler reverses execution order and delays everything it can
// once — the strongest legal rushing adversary.
type reverseScheduler struct {
	delayedOnce bool
}

func (s *reverseScheduler) Schedule(_ int, mandatory, fresh []*Tx) (order, delay []*Tx) {
	if !s.delayedOnce {
		s.delayedOnce = true
		order = append(order, mandatory...)
		return reverse(order), fresh
	}
	order = append(append(order, mandatory...), fresh...)
	return reverse(order), nil
}

// Tx aliases chain.Tx for the scheduler signature.
type Tx = chain.Tx

func reverse(txs []*Tx) []*Tx {
	out := make([]*Tx, len(txs))
	for i, tx := range txs {
		out[len(txs)-1-i] = tx
	}
	return out
}

func TestAdversarialSchedulerDelaysAtMostOneRound(t *testing.T) {
	c, _ := newTestChain(t, &reverseScheduler{})
	c.Submit(&chain.Tx{From: "alice", Contract: "ctr", Method: "inc"})
	c.Submit(&chain.Tx{From: "bob", Contract: "ctr", Method: "inc"})
	rs := mine(t, c)
	if len(rs) != 0 {
		t.Fatalf("round 0 executed %d txs; adversary should have delayed all", len(rs))
	}
	rs = mine(t, c)
	if len(rs) != 2 {
		t.Fatalf("round 1 executed %d txs, want 2 (synchrony bound)", len(rs))
	}
	// Reversed order: bob's tx first.
	if rs[0].Tx.From != "bob" {
		t.Errorf("adversary ordering not applied: first tx from %s", rs[0].Tx.From)
	}
}

// evilScheduler drops a transaction — the chain must refuse the schedule.
type evilScheduler struct{}

func (evilScheduler) Schedule(_ int, mandatory, fresh []*Tx) (order, delay []*Tx) {
	return nil, nil // drops everything
}

func TestSchedulerViolationDetected(t *testing.T) {
	l := ledger.New()
	c := chain.New(l, evilScheduler{})
	if _, err := c.Deploy("ctr", counterContract{}, 1, "alice"); err != nil {
		t.Fatal(err)
	}
	c.Submit(&chain.Tx{From: "alice", Contract: "ctr", Method: "inc"})
	if _, err := c.MineRound(); err == nil {
		t.Fatal("expected scheduler-violation error")
	}
}

// meterContract exercises MeteredGroup inside a contract call.
type meterContract struct{}

func (meterContract) Execute(env *chain.Env, _ chain.Address, _ string, _ []byte) error {
	mg := chain.NewMeteredGroup(env, group.TestSchnorr())
	a := mg.ScalarBaseMul(big.NewInt(3)) // ECMUL
	b := mg.ScalarBaseMul(big.NewInt(4)) // ECMUL
	_ = mg.Add(a, b)                     // ECADD
	return nil
}

func TestMeteredGroupCharges(t *testing.T) {
	l := ledger.New()
	c := chain.New(l, nil)
	if _, err := c.Deploy("m", meterContract{}, 1, "alice"); err != nil {
		t.Fatal(err)
	}
	c.Submit(&chain.Tx{From: "alice", Contract: "m", Method: "go"})
	rs, err := c.MineRound()
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(gas.TxBase + 2*gas.EcMul + gas.EcAdd)
	if rs[0].GasUsed != want {
		t.Errorf("gas = %d, want %d", rs[0].GasUsed, want)
	}
}

func TestStoreGetSeesJournaledWrites(t *testing.T) {
	// Covered indirectly by TestExecuteAndEvents (two incs in one round read
	// each other's committed state); here check within a single call via the
	// counter semantics: inc twice in same round yields 2.
	c, _ := newTestChain(t, nil)
	c.Submit(&chain.Tx{From: "alice", Contract: "ctr", Method: "inc"})
	c.Submit(&chain.Tx{From: "alice", Contract: "ctr", Method: "inc"})
	mine(t, c)
	evs := c.Events()
	if evs[len(evs)-1].Data[0] != 2 {
		t.Errorf("second inc saw stale state: %+v", evs)
	}
}
