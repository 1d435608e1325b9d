package contract_test

import (
	"errors"
	"testing"

	"dragoon/internal/chain"
	"dragoon/internal/contract"
)

// TestPhaseObserverReportsPruned is the regression test for observers over a
// pruned contract: an Observer that already folded part of the log must
// surface chain.ErrPruned from Refresh — not silently derive a phase from a
// truncated view.
func TestPhaseObserverReportsPruned(t *testing.T) {
	h := newHarness(t, 2)
	obs := contract.NewObserver(h.chain, "h")
	h.publish()
	view, err := obs.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if ph := view.Phase(h.chain.Round()); ph != contract.PhaseCommit {
		t.Fatalf("phase after publish = %v, want PhaseCommit", ph)
	}
	// Settle the escrow out of the way (commit phase expires unfilled, the
	// requester cancels for a refund), then prune.
	for r := 0; r < 17; r++ {
		if _, err := h.chain.MineRound(); err != nil {
			t.Fatal(err)
		}
	}
	h.mustOK(h.send(h.requester, contract.MethodFinalize, nil))
	if err := h.chain.PruneContract("h"); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.Refresh(); !errors.Is(err, chain.ErrPruned) {
		t.Fatalf("phase over pruned log: err = %v, want ErrPruned", err)
	}
	// A fresh observer of the pruned contract sees an empty log and reports
	// the pre-publish phase — the documented limitation for cursors created
	// after the prune.
	if view, err = contract.NewObserver(h.chain, "h").Refresh(); err != nil {
		t.Fatalf("fresh observer on pruned contract: err %v", err)
	}
	if ph := view.Phase(h.chain.Round()); ph != 0 {
		t.Fatalf("fresh observer on pruned contract: phase %v", ph)
	}
}
