package chain_test

import (
	"errors"
	"testing"

	"dragoon/internal/chain"
)

// incRounds mines one round per entry; entry k submits that many
// increments of contract "a" (and one of "b", whose events must never
// reach a's cursors).
func incRounds(t *testing.T, c *chain.Chain, perRound ...int) {
	t.Helper()
	for _, n := range perRound {
		for i := 0; i < n; i++ {
			c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
		}
		c.Submit(&chain.Tx{From: "alice", Contract: "b", Method: "inc"})
		mine(t, c)
	}
}

// counters returns the counter values a batch of a's events carries.
func counters(evs []chain.Event) []byte {
	out := make([]byte, len(evs))
	for i, ev := range evs {
		out[i] = ev.Data[0]
	}
	return out
}

// TestReplayCursor checks a replay backend's cursor as a restoring service
// drives it: it sees only events of rounds below the cap, each SetRound
// reveals the next rounds' events, and after GoLive it delivers the rest of
// the log exactly once.
func TestReplayCursor(t *testing.T) {
	c := newTwoContractChain(t)
	incRounds(t, c, 1, 2, 0, 1) // a's counter: 1 in round 0, 2-3 in round 1, 4 in round 3
	rb := chain.NewReplayBackend(c, 1)
	cur := rb.Cursor("a")
	if got := counters(poll(t, cur)); string(got) != "\x01" {
		t.Fatalf("cap 1: polled counters %v, want [1]", got)
	}
	if evs := poll(t, cur); evs != nil {
		t.Fatalf("cap 1: re-poll returned %d events, want none", len(evs))
	}
	rb.SetRound(3)
	if got := counters(poll(t, cur)); string(got) != "\x02\x03" {
		t.Fatalf("cap 3: polled counters %v, want [2 3]", got)
	}
	// A cursor opened later starts at the log's head, under the same cap.
	late := rb.Cursor("a")
	if got := counters(poll(t, late)); string(got) != "\x01\x02\x03" {
		t.Fatalf("late cursor at cap 3: polled counters %v, want [1 2 3]", got)
	}
	rb.GoLive()
	incRounds(t, c, 1)
	if got := counters(poll(t, cur)); string(got) != "\x04\x05" {
		t.Fatalf("live: polled counters %v, want [4 5]", got)
	}
	if evs := poll(t, cur); evs != nil {
		t.Fatalf("live: re-poll returned %d events, want none", len(evs))
	}
	if err := c.PruneContract("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Poll(); !errors.Is(err, chain.ErrPruned) {
		t.Fatalf("poll over pruned log: err = %v, want ErrPruned", err)
	}
}

// TestReplayCursorReportsPruned: a capped cursor standing past the head of
// a pruned log fails with ErrPruned, as a live one does.
func TestReplayCursorReportsPruned(t *testing.T) {
	c := newTwoContractChain(t)
	incRounds(t, c, 1)
	rb := chain.NewReplayBackend(c, 1)
	cur := rb.Cursor("a")
	if evs := poll(t, cur); len(evs) != 1 {
		t.Fatalf("pre-prune poll = %d events, want 1", len(evs))
	}
	if err := c.PruneContract("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Poll(); !errors.Is(err, chain.ErrPruned) {
		t.Fatalf("capped poll over pruned log: err = %v, want ErrPruned", err)
	}
}

// TestReplayBackendReceipts: while replaying, Receipts returns only the
// receipts of rounds below the cap; once live, all of them.
func TestReplayBackendReceipts(t *testing.T) {
	c := newTwoContractChain(t) // two deploy receipts in round 0
	incRounds(t, c, 1, 1)       // two more receipts in each of rounds 0 and 1
	rb := chain.NewReplayBackend(c, 0)
	if got := len(rb.Receipts()); got != 0 {
		t.Fatalf("cap 0: %d receipts, want 0", got)
	}
	rb.SetRound(1)
	rcpts := rb.Receipts()
	if len(rcpts) != 4 {
		t.Fatalf("cap 1: %d receipts, want 4", len(rcpts))
	}
	for _, r := range rcpts {
		if r.Round >= 1 {
			t.Fatalf("cap 1: receipt of round %d visible", r.Round)
		}
	}
	if rb.Round() != 1 {
		t.Fatalf("replay Round() = %d, want the cap 1", rb.Round())
	}
	rb.GoLive()
	if got, want := len(rb.Receipts()), len(c.Receipts()); got != want || got != 6 {
		t.Fatalf("live: %d receipts, chain has %d, want 6", got, want)
	}
	if rb.Round() != c.Round() {
		t.Fatalf("live Round() = %d, chain at %d", rb.Round(), c.Round())
	}
}
