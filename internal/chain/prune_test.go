package chain_test

import (
	"errors"
	"strings"
	"testing"

	"dragoon/internal/chain"
	"dragoon/internal/ledger"
)

// TestCursorReportsPruned is the regression test for the silent-rescan bug:
// a cursor standing past a pruned contract's (now empty) log must fail with
// the typed chain.ErrPruned instead of quietly reporting "no new events" or —
// once re-created — rescanning from zero and double-delivering.
func TestCursorReportsPruned(t *testing.T) {
	c := newTwoContractChain(t)
	cur := c.Cursor("a")
	c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
	mine(t, c)
	if evs := poll(t, cur); len(evs) != 1 {
		t.Fatalf("pre-prune poll = %d events, want 1", len(evs))
	}
	if err := c.PruneContract("a"); err != nil {
		t.Fatal(err)
	}
	_, err := cur.Poll()
	if !errors.Is(err, chain.ErrPruned) {
		t.Fatalf("poll over pruned log: err = %v, want ErrPruned", err)
	}
	if !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("pruned error does not name the contract: %v", err)
	}
	// The sibling contract's cursor is untouched.
	other := c.Cursor("b")
	if evs := poll(t, other); evs != nil {
		t.Fatalf("sibling cursor affected by prune: %+v", evs)
	}
}

// TestPruneContractRefusesEscrow: pruning is for settled contracts only;
// dropping a contract that still holds escrowed coins would strand funds.
func TestPruneContractRefusesEscrow(t *testing.T) {
	l := ledger.New()
	l.Mint("alice", 1000)
	c := chain.New(l, nil)
	if _, err := c.Deploy("a", counterContract{}, 100, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := l.FreezeCoins("a", "alice", 100); err != nil {
		t.Fatal(err)
	}
	if err := c.PruneContract("a"); err == nil {
		t.Fatal("pruned a contract with live escrow")
	}
	if err := l.PayCoins("a", "alice", 100); err != nil {
		t.Fatal(err)
	}
	if err := c.PruneContract("a"); err != nil {
		t.Fatalf("prune after settlement: %v", err)
	}
	// Pruned wholesale: storage, events and gas index are gone.
	if evs := c.EventsFor("a"); len(evs) != 0 {
		t.Fatalf("pruned contract retains %d events", len(evs))
	}
	if gas := c.GasByMethodFor("a"); len(gas) != 0 {
		t.Fatalf("pruned contract retains gas index %v", gas)
	}
}

// TestTrimBefore: the receipt log, and with it Events, is prefix-cut by
// round; per-contract logs are untouched (they are released by
// PruneContract).
func TestTrimBefore(t *testing.T) {
	c := newTwoContractChain(t)
	for round := 0; round < 4; round++ {
		c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
		mine(t, c)
	}
	c.TrimBefore(2)
	for _, rcpt := range c.Receipts() {
		if rcpt.Round < 2 {
			t.Fatalf("receipt of round %d survived TrimBefore(2)", rcpt.Round)
		}
	}
	for _, ev := range c.Events() {
		if ev.Round < 2 {
			t.Fatalf("event of round %d survived TrimBefore(2)", ev.Round)
		}
	}
	if got := len(c.EventsFor("a")); got != 4 {
		t.Fatalf("per-contract log trimmed: %d events, want 4", got)
	}
}
