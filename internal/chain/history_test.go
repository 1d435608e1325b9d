package chain_test

import (
	"reflect"
	"testing"

	"dragoon/internal/chain"
	"dragoon/internal/ledger"
)

// receiptEvents is the oracle for Chain.Events: the retained receipts'
// events, concatenated in receipt order.
func receiptEvents(c *chain.Chain) []chain.Event {
	out := []chain.Event{}
	for _, r := range c.Receipts() {
		out = append(out, r.Events...)
	}
	return out
}

// checkEvents requires c.Events() to hold want events and to equal the
// concatenation of the retained receipts' events.
func checkEvents(t *testing.T, c *chain.Chain, want int) {
	t.Helper()
	got := c.Events()
	if len(got) != want {
		t.Fatalf("Events holds %d events, want %d", len(got), want)
	}
	if oracle := receiptEvents(c); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("Events diverges from the receipts' events:\n got  %+v\n want %+v", got, oracle)
	}
}

// delayLater delays every fresh transaction whose method is "later" by one
// round, a legal rushing adversary that leaves the mempool non-empty at a
// round boundary.
type delayLater struct{}

func (delayLater) Schedule(_ int, mandatory, fresh []*Tx) (order, delay []*Tx) {
	order = append(order, mandatory...)
	for _, tx := range fresh {
		if tx.Method == "later" {
			delay = append(delay, tx)
		} else {
			order = append(order, tx)
		}
	}
	return order, delay
}

// busyChain builds a chain with every section of a snapshot populated:
// three contracts' storage, logs and gas (one of them pruned), receipts with
// and without events (a revert among them), a trimmed first round, and a
// transaction delayed into the next round. It holds three events.
func busyChain(t testing.TB) *chain.Chain {
	t.Helper()
	l := ledger.New()
	l.Mint("alice", 1000)
	c := chain.New(l, delayLater{})
	for _, id := range []ledger.ContractID{"a", "b", "c"} {
		if _, err := c.Deploy(id, counterContract{}, 100, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	for _, round := range [][]chain.Tx{
		{{From: "alice", Contract: "a", Method: "inc"}, {From: "bob", Contract: "b", Method: "inc"}},
		{{From: "alice", Contract: "a", Method: "inc"}, {From: "alice", Contract: "a", Method: "fail"},
			{From: "bob", Contract: "c", Method: "inc"}},
		{{From: "bob", Contract: "b", Method: "inc"}, {From: "alice", Contract: "a", Method: "later"}},
	} {
		for i := range round {
			if err := c.Submit(&round[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.MineRound(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PruneContract("c"); err != nil {
		t.Fatal(err)
	}
	c.TrimBefore(1)
	return c
}

// TestEventsAreReceiptEvents: Events is the concatenation of the retained
// receipts' events on a fresh chain, after TrimBefore cuts, under the
// parallel executor and after a snapshot/restore.
func TestEventsAreReceiptEvents(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		c := chain.New(ledger.New(), nil)
		checkEvents(t, c, 0)
		for _, id := range []ledger.ContractID{"a", "b"} {
			if _, err := c.Deploy(id, counterContract{}, 100, "alice"); err != nil {
				t.Fatal(err)
			}
		}
		checkEvents(t, c, 0)
		c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
		c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "fail"})
		c.Submit(&chain.Tx{From: "bob", Contract: "b", Method: "inc"})
		mine(t, c)
		c.Submit(&chain.Tx{From: "bob", Contract: "a", Method: "inc"})
		mine(t, c)
		checkEvents(t, c, 3)
	})
	t.Run("trimmed", func(t *testing.T) {
		c := newTwoContractChain(t)
		for round := 0; round < 4; round++ {
			c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
			c.Submit(&chain.Tx{From: "alice", Contract: "b", Method: "inc"})
			mine(t, c)
		}
		c.TrimBefore(2)
		checkEvents(t, c, 4)
		for _, ev := range c.Events() {
			if ev.Round < 2 {
				t.Fatalf("event of round %d survived TrimBefore(2)", ev.Round)
			}
		}
		c.TrimBefore(10)
		checkEvents(t, c, 0)
	})
	t.Run("parallel", func(t *testing.T) {
		var logs [2][]chain.Event
		for i, workers := range []int{1, 4} {
			c, _ := newTestChain(t, nil)
			c.SetParallelExecution(workers)
			for round := 0; round < 3; round++ {
				for _, from := range []chain.Address{"alice", "bob", "carol"} {
					c.Submit(&chain.Tx{From: from, Contract: "ctr", Method: "inc"})
				}
				c.Submit(&chain.Tx{From: "bob", Contract: "ctr", Method: "fail"})
				mine(t, c)
			}
			checkEvents(t, c, 9)
			logs[i] = c.Events()
			if spec, _ := c.ExecStats(); (workers > 1) != (spec > 0) {
				t.Fatalf("%d workers speculated %d transactions", workers, spec)
			}
		}
		if !reflect.DeepEqual(logs[0], logs[1]) {
			t.Fatalf("parallel Events diverge from sequential:\n seq %+v\n par %+v", logs[0], logs[1])
		}
	})
	t.Run("restored", func(t *testing.T) {
		c := busyChain(t)
		checkEvents(t, c, 3)
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		c2, err := chain.RestoreChain(ledger.New(), nil, snap)
		if err != nil {
			t.Fatal(err)
		}
		checkEvents(t, c2, 3)
		if !reflect.DeepEqual(c2.Events(), c.Events()) {
			t.Fatal("restored Events diverge")
		}
	})
}

// TestTrimBeforeAllocatesNothing: TrimBefore cuts its prefix in place, so a
// trim that drops receipts allocates nothing.
func TestTrimBeforeAllocatesNothing(t *testing.T) {
	c := newTwoContractChain(t)
	const rounds = 30
	for round := 0; round < rounds; round++ {
		c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
		mine(t, c)
	}
	cut := 0
	allocs := testing.AllocsPerRun(20, func() {
		cut++
		c.TrimBefore(cut)
	})
	if allocs != 0 {
		t.Errorf("TrimBefore allocates %.1f times per cut, want 0", allocs)
	}
	if got, want := len(c.Receipts()), rounds-cut; got != want {
		t.Fatalf("%d receipts after TrimBefore(%d), want %d", got, cut, want)
	}
	checkEvents(t, c, rounds-cut)
}
