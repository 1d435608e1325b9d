package chain_test

import (
	"testing"

	"dragoon/internal/chain"
	"dragoon/internal/ledger"
)

// newTwoContractChain deploys two independent counter contracts on one
// shared chain.
func newTwoContractChain(t *testing.T) *chain.Chain {
	t.Helper()
	l := ledger.New()
	l.Mint("alice", 1000)
	c := chain.New(l, nil)
	for _, id := range []ledger.ContractID{"a", "b"} {
		if _, err := c.Deploy(id, counterContract{}, 100, "alice"); err != nil {
			t.Fatalf("Deploy %s: %v", id, err)
		}
	}
	return c
}

// TestEventsForIsolation checks that the per-contract event index only ever
// returns a contract's own events, in emission order, regardless of how the
// two contracts' transactions interleave.
func TestEventsForIsolation(t *testing.T) {
	c := newTwoContractChain(t)
	c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
	c.Submit(&chain.Tx{From: "alice", Contract: "b", Method: "inc"})
	c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
	mine(t, c)
	c.Submit(&chain.Tx{From: "alice", Contract: "b", Method: "inc"})
	c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
	mine(t, c)

	if got := len(c.Events()); got != 5 {
		t.Fatalf("global events = %d, want 5", got)
	}
	evA, evB := c.EventsFor("a"), c.EventsFor("b")
	if len(evA) != 3 || len(evB) != 2 {
		t.Fatalf("per-contract events = %d/%d, want 3/2", len(evA), len(evB))
	}
	for i, ev := range evA {
		if ev.Contract != "a" {
			t.Errorf("EventsFor(a)[%d].Contract = %q", i, ev.Contract)
		}
		// counterContract emits the post-increment value: a's stream must
		// count 1,2,3 untouched by b's interleaved increments.
		if ev.Data[0] != byte(i+1) {
			t.Errorf("EventsFor(a)[%d] counter = %d, want %d", i, ev.Data[0], i+1)
		}
	}
	if c.EventsFor("missing") != nil && len(c.EventsFor("missing")) != 0 {
		t.Error("EventsFor of unknown contract not empty")
	}
}

// TestStorageIsolation checks that two contracts writing the same storage
// key on one chain never observe each other's state.
func TestStorageIsolation(t *testing.T) {
	c := newTwoContractChain(t)
	for i := 0; i < 3; i++ {
		c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
	}
	c.Submit(&chain.Tx{From: "alice", Contract: "b", Method: "inc"})
	mine(t, c)

	evA, evB := c.EventsFor("a"), c.EventsFor("b")
	if got := evA[len(evA)-1].Data[0]; got != 3 {
		t.Errorf("a's counter = %d, want 3", got)
	}
	// b stores under the same key "n" but must have counted independently.
	if got := evB[len(evB)-1].Data[0]; got != 1 {
		t.Errorf("b's counter = %d, want 1 (leaked from a's storage?)", got)
	}
}

// poll drains a cursor, failing the test on a pruning error.
func poll(t *testing.T, cur *chain.Cursor) []chain.Event {
	t.Helper()
	evs, err := cur.Poll()
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	return evs
}

// TestCursorPollsOnlyNewEvents checks the incremental cursor contract: each
// Poll returns exactly the events since the previous Poll, and independent
// cursors do not disturb one another.
func TestCursorPollsOnlyNewEvents(t *testing.T) {
	c := newTwoContractChain(t)
	curA := c.Cursor("a")
	other := c.Cursor("a")

	if evs := poll(t, curA); len(evs) != 0 {
		t.Fatalf("fresh cursor returned %d events", len(evs))
	}
	c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
	c.Submit(&chain.Tx{From: "alice", Contract: "b", Method: "inc"})
	mine(t, c)
	if evs := poll(t, curA); len(evs) != 1 || evs[0].Data[0] != 1 {
		t.Fatalf("first poll = %+v, want a's single increment", evs)
	}
	if evs := poll(t, curA); len(evs) != 0 {
		t.Fatalf("re-poll returned %d events, want 0", len(evs))
	}
	c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
	mine(t, c)
	if evs := poll(t, curA); len(evs) != 1 || evs[0].Data[0] != 2 {
		t.Fatalf("second poll = %+v, want only the new increment", evs)
	}
	// The untouched cursor still sees the full stream.
	if evs := poll(t, other); len(evs) != 2 {
		t.Fatalf("independent cursor saw %d events, want 2", len(evs))
	}
}

// TestUnknownContractEvents checks the event index on IDs that never
// deployed or never emitted: EventsFor returns an empty slice, a Cursor
// polls nothing (and stays usable if the contract appears later).
func TestUnknownContractEvents(t *testing.T) {
	c := newTwoContractChain(t)
	if evs := c.EventsFor("ghost"); len(evs) != 0 {
		t.Fatalf("EventsFor(unknown) = %d events, want 0", len(evs))
	}
	ghost := c.Cursor("ghost")
	if evs := poll(t, ghost); evs != nil {
		t.Fatalf("Cursor(unknown).Poll() = %+v, want nil", evs)
	}
	// Traffic on other contracts must not leak into the unknown cursor.
	c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
	mine(t, c)
	if evs := poll(t, ghost); evs != nil {
		t.Fatalf("unknown cursor leaked %d foreign events", len(evs))
	}
	// A transaction to an undeployed contract reverts and emits nothing.
	c.Submit(&chain.Tx{From: "alice", Contract: "ghost", Method: "inc"})
	rs, err := c.MineRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || !rs[0].Reverted() {
		t.Fatalf("tx to undeployed contract: receipts %+v, want one revert", rs)
	}
	if evs := poll(t, ghost); evs != nil {
		t.Fatalf("reverted call emitted %d events", len(evs))
	}
}
