package ledger_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dragoon/internal/ledger"
)

func TestFreezeAndPay(t *testing.T) {
	l := ledger.New()
	l.Mint("requester", 1000)

	if err := l.FreezeCoins("hit", "requester", 400); err != nil {
		t.Fatalf("FreezeCoins: %v", err)
	}
	if got := l.Balance("requester"); got != 600 {
		t.Errorf("balance = %d, want 600", got)
	}
	if got := l.Escrow("hit"); got != 400 {
		t.Errorf("escrow = %d, want 400", got)
	}
	if err := l.PayCoins("hit", "worker1", 100); err != nil {
		t.Fatalf("PayCoins: %v", err)
	}
	if got := l.Balance("worker1"); got != 100 {
		t.Errorf("worker1 = %d, want 100", got)
	}
	if err := l.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestNoFund(t *testing.T) {
	l := ledger.New()
	l.Mint("poor", 10)
	if err := l.FreezeCoins("hit", "poor", 11); err == nil {
		t.Fatal("expected nofund error")
	}
	if got := l.Balance("poor"); got != 10 {
		t.Errorf("balance changed on nofund: %d", got)
	}
	evs := l.Events()
	if len(evs) != 1 || evs[0].Kind != ledger.EventNoFund {
		t.Errorf("events = %+v, want one nofund", evs)
	}
}

func TestOverPay(t *testing.T) {
	l := ledger.New()
	l.Mint("r", 100)
	if err := l.FreezeCoins("hit", "r", 50); err != nil {
		t.Fatal(err)
	}
	if err := l.PayCoins("hit", "w", 51); err == nil {
		t.Fatal("expected overpay error")
	}
	if err := l.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestEventTrace(t *testing.T) {
	l := ledger.New()
	l.Mint("r", 100)
	_ = l.FreezeCoins("hit", "r", 100)
	_ = l.PayCoins("hit", "w", 25)
	evs := l.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Kind != ledger.EventFrozen || evs[0].Kind.String() != "frozen" {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[1].Kind != ledger.EventPaid || evs[1].Party != "w" || evs[1].Amount != 25 {
		t.Errorf("event 1 = %+v", evs[1])
	}
}

func TestAccountsSorted(t *testing.T) {
	l := ledger.New()
	l.Mint("zed", 1)
	l.Mint("amy", 1)
	l.Mint("broke", 0)
	got := l.Accounts()
	if len(got) != 2 || got[0] != "amy" || got[1] != "zed" {
		t.Errorf("Accounts() = %v", got)
	}
}

// Property: any random sequence of freezes and payments conserves total
// supply, and no balance ever goes negative (unsigned type + explicit
// checks guarantee it, but the invariant must survive arbitrary op orders).
func TestConservationQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := ledger.New()
		parties := []ledger.AccountID{"a", "b", "c"}
		for _, p := range parties {
			l.Mint(p, ledger.Amount(rng.Intn(1000)))
		}
		contracts := []ledger.ContractID{"x", "y"}
		for i := 0; i < 50; i++ {
			p := parties[rng.Intn(len(parties))]
			f := contracts[rng.Intn(len(contracts))]
			amt := ledger.Amount(rng.Intn(300))
			if rng.Intn(2) == 0 {
				_ = l.FreezeCoins(f, p, amt)
			} else {
				_ = l.PayCoins(f, p, amt)
			}
		}
		return l.CheckConservation() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTrimEventsInPlace: TrimEvents keeps the newest entries in order and
// cuts in place, so a trim that drops entries allocates nothing.
func TestTrimEventsInPlace(t *testing.T) {
	l := ledger.New()
	l.Mint("r", 1000)
	if err := l.FreezeCoins("hit", "r", 1000); err != nil {
		t.Fatal(err)
	}
	const pays = 30
	for i := 1; i <= pays; i++ {
		if err := l.PayCoins("hit", "w", ledger.Amount(i)); err != nil {
			t.Fatal(err)
		}
	}
	keep := pays + 1
	allocs := testing.AllocsPerRun(20, func() {
		keep--
		l.TrimEvents(keep)
	})
	if allocs != 0 {
		t.Errorf("TrimEvents allocates %.1f times per cut, want 0", allocs)
	}
	evs := l.Events()
	if len(evs) != keep {
		t.Fatalf("%d events after TrimEvents(%d)", len(evs), keep)
	}
	for i, ev := range evs {
		if want := ledger.Amount(pays - keep + 1 + i); ev.Kind != ledger.EventPaid || ev.Amount != want {
			t.Fatalf("event %d = %+v, want the payment of %d", i, ev, want)
		}
	}
}
