package adversary

import (
	"fmt"

	"dragoon/internal/chain"
	"dragoon/internal/contract"
	"dragoon/internal/ledger"
)

// CheckInvariants asserts every security invariant the protocol promises,
// over the full final state of a scenario run. It returns the first
// violation found (nil if the run is clean):
//
//  1. settlement: every task ended, and ended the way the scenario's
//     security argument predicts (finalized vs cancelled);
//     1a. economics (scenarios declaring an EconSpec): rational workers played
//     their computed best response and honest effort was paid, coalitions
//     and sybil principals could not beat the independent baseline, and no
//     below-threshold shared stream was paid under an honest audit;
//  2. fund conservation: the ledger conserves with every task escrow
//     drained, and its supply is exactly what the harness minted;
//  3. exact balances: each requester holds 2B minus one reward per paid
//     worker (2B after a cancel — division dust always returns to her),
//     and each worker holds its pre-funding plus one reward per task that
//     paid it;
//  4. honest payment: every honest worker of a finalized task is paid and
//     not rejected; on a cancelled task it is unpaid but lost nothing;
//  5. phase monotonicity: each contract's event log is a well-formed
//     phase story with every event inside its protocol window.
func (r *Report) CheckInvariants() error {
	if err := r.checkSettlement(); err != nil {
		return fmt.Errorf("%s: %w", r.Name, err)
	}
	if err := r.checkEconomics(); err != nil {
		return fmt.Errorf("%s: %w", r.Name, err)
	}
	if err := r.checkFunds(); err != nil {
		return fmt.Errorf("%s: %w", r.Name, err)
	}
	if err := r.checkHonestPaid(); err != nil {
		return fmt.Errorf("%s: %w", r.Name, err)
	}
	for i := range r.Tasks {
		if err := r.checkPhaseStory(&r.Tasks[i]); err != nil {
			return fmt.Errorf("%s: task %s: %w", r.Name, r.Tasks[i].ID, err)
		}
	}
	return nil
}

func (r *Report) checkSettlement() error {
	for i := range r.Tasks {
		t := &r.Tasks[i]
		if !t.Finalized && !t.Cancelled {
			return fmt.Errorf("task %s never settled", t.ID)
		}
		if t.Finalized && t.Cancelled {
			return fmt.Errorf("task %s both finalized and cancelled", t.ID)
		}
		if t.ExpectCancel && !t.Cancelled {
			return fmt.Errorf("task %s finalized, scenario predicts cancellation", t.ID)
		}
		if !t.ExpectCancel && !t.Finalized {
			return fmt.Errorf("task %s cancelled, scenario predicts finalization", t.ID)
		}
	}
	return nil
}

func (r *Report) checkFunds() error {
	if err := r.checkSupply(); err != nil {
		return err
	}
	// Exact per-worker balances, accumulated across every task that paid
	// them (a population member may be enrolled in several).
	wantWorker := make(map[chain.Address]ledger.Amount)
	for i := range r.Tasks {
		t := &r.Tasks[i]
		if got := r.Ledger.Escrow(ledger.ContractID(t.ID)); got != 0 {
			return fmt.Errorf("task %s escrow %d after settlement", t.ID, got)
		}
		reward := t.Budget / ledger.Amount(t.Quota)
		var paid ledger.Amount
		for _, o := range t.Outcomes {
			if _, seen := wantWorker[o.Addr]; !seen {
				wantWorker[o.Addr] = r.WorkerBalance
			}
			if o.Paid {
				wantWorker[o.Addr] += reward
				paid += reward
			}
		}
		wantReq := t.Budget*2 - paid
		if t.RequesterBalance != wantReq {
			return fmt.Errorf("task %s requester balance %d, want %d (budget %d, paid out %d)",
				t.ID, t.RequesterBalance, wantReq, t.Budget, paid)
		}
	}
	for addr, want := range wantWorker {
		if got := r.Ledger.Balance(ledger.AccountID(addr)); got != want {
			return fmt.Errorf("worker %s balance %d, want %d", addr, got, want)
		}
	}
	return nil
}

// checkSupply asserts that the ledger conserves, that every coin on it is
// liquid again (no contract escrow holds anything), and that the supply is
// exactly the harness's own minted count.
func (r *Report) checkSupply() error {
	if err := r.Ledger.CheckConservation(); err != nil {
		return err
	}
	supply := r.Ledger.TotalSupply()
	var liquid ledger.Amount
	for _, acct := range r.Ledger.Accounts() {
		liquid += r.Ledger.Balance(acct)
	}
	if liquid != supply {
		return fmt.Errorf("liquid balances sum to %d, supply %d (escrow not drained)", liquid, supply)
	}
	if supply != r.Minted {
		return fmt.Errorf("supply %d, minted %d", supply, r.Minted)
	}
	return nil
}

func (r *Report) checkHonestPaid() error {
	for i := range r.Tasks {
		t := &r.Tasks[i]
		for _, hi := range t.Honest {
			if hi < 0 || hi >= len(t.Outcomes) {
				return fmt.Errorf("honest index %d out of lineup (%d workers)", hi, len(t.Outcomes))
			}
			o := &t.Outcomes[hi]
			if o.Rejected {
				return fmt.Errorf("honest worker %s rejected", o.Addr)
			}
			if t.Finalized && !o.Paid {
				return fmt.Errorf("honest worker %s unpaid on finalized task %s", o.Addr, t.ID)
			}
			if t.Cancelled && o.Paid {
				return fmt.Errorf("worker %s paid on cancelled task %s", o.Addr, t.ID)
			}
		}
	}
	return nil
}

// checkPhaseStory validates one contract's event log against the protocol
// phase machine and its timing windows. It walks the whole log itself, not
// through contract.View, so it stays an independent check of the outcomes
// the harness read from that view.
func (r *Report) checkPhaseStory(t *TaskReport) error {
	events := r.Chain.EventsFor(ledger.ContractID(t.ID))
	if len(events) == 0 {
		return fmt.Errorf("no events (task never published)")
	}
	var (
		params         *contract.PublishMsg
		pubRound       = -1
		commitRound    = -1
		goldenRound    = -1
		settledRound   = -1
		sawFinalized   bool
		sawCancelled   bool
		lastRound      = -1
		revealed       = make(map[chain.Address]bool)
		paid           = make(map[chain.Address]bool)
		rejected       = make(map[chain.Address]bool)
		revealStart    = -1
		revealEnd      = -1
		evalEnd        = -1
		workerFromData = func(data []byte) (chain.Address, error) {
			w, _, ok := contract.EventWorker(data)
			if !ok {
				return "", fmt.Errorf("event data lacks worker prefix")
			}
			return w, nil
		}
	)
	for k, ev := range events {
		if ev.Round < lastRound {
			return fmt.Errorf("event %d (%s) at round %d after round %d: clock ran backwards",
				k, ev.Name, ev.Round, lastRound)
		}
		lastRound = ev.Round
		if settledRound >= 0 {
			return fmt.Errorf("event %s at round %d after settlement at round %d",
				ev.Name, ev.Round, settledRound)
		}
		switch ev.Name {
		case contract.EventPublished:
			if params != nil {
				return fmt.Errorf("published twice")
			}
			var err error
			if params, err = contract.UnmarshalPublish(ev.Data); err != nil {
				return fmt.Errorf("undecodable publish event: %w", err)
			}
			pubRound = ev.Round
		case contract.EventCommitted:
			if params == nil {
				return fmt.Errorf("committed before published")
			}
			if commitRound >= 0 {
				return fmt.Errorf("commit phase closed twice")
			}
			if ev.Round > pubRound+params.CommitRounds {
				return fmt.Errorf("commit phase closed at round %d, deadline %d",
					ev.Round, pubRound+params.CommitRounds)
			}
			commitRound = ev.Round
			revealStart = commitRound
			revealEnd = commitRound + contract.RevealRounds
			evalEnd = revealEnd + contract.EvalRounds
		case contract.EventRevealed:
			if commitRound < 0 {
				return fmt.Errorf("revealed before commit phase closed")
			}
			if ev.Round <= revealStart || ev.Round > revealEnd {
				return fmt.Errorf("reveal at round %d outside window (%d,%d]",
					ev.Round, revealStart, revealEnd)
			}
			w, err := workerFromData(ev.Data)
			if err != nil {
				return fmt.Errorf("revealed: %w", err)
			}
			if revealed[w] {
				return fmt.Errorf("worker %s revealed twice", w)
			}
			revealed[w] = true
		case contract.EventGoldenRevealed:
			if commitRound < 0 {
				return fmt.Errorf("golden opening before commit phase closed")
			}
			if goldenRound >= 0 {
				return fmt.Errorf("golden opened twice")
			}
			if ev.Round <= revealEnd || ev.Round > evalEnd {
				return fmt.Errorf("golden opening at round %d outside window (%d,%d]",
					ev.Round, revealEnd, evalEnd)
			}
			goldenRound = ev.Round
		case contract.EventPaid:
			w := chain.Address(ev.Data)
			if !revealed[w] {
				return fmt.Errorf("worker %s paid without revealing", w)
			}
			if paid[w] {
				return fmt.Errorf("worker %s paid twice", w)
			}
			if rejected[w] {
				return fmt.Errorf("worker %s paid after rejection", w)
			}
			if ev.Round <= revealEnd {
				return fmt.Errorf("payment at round %d before evaluation opened (round %d)",
					ev.Round, revealEnd)
			}
			paid[w] = true
		case contract.EventRejected:
			w, err := workerFromData(ev.Data)
			if err != nil {
				return fmt.Errorf("rejected: %w", err)
			}
			if goldenRound < 0 {
				return fmt.Errorf("worker %s rejected before the golden opening", w)
			}
			if !revealed[w] {
				return fmt.Errorf("worker %s rejected without revealing", w)
			}
			if paid[w] || rejected[w] {
				return fmt.Errorf("worker %s decided twice", w)
			}
			if ev.Round > evalEnd {
				return fmt.Errorf("rejection at round %d after evaluation closed (round %d)",
					ev.Round, evalEnd)
			}
			rejected[w] = true
		case contract.EventFinalized:
			if commitRound < 0 {
				return fmt.Errorf("finalized without a filled commit phase")
			}
			if ev.Round <= evalEnd {
				return fmt.Errorf("finalized at round %d inside the evaluation window (ends %d)",
					ev.Round, evalEnd)
			}
			sawFinalized = true
			settledRound = ev.Round
		case contract.EventCancelled:
			if commitRound >= 0 {
				return fmt.Errorf("cancelled after the commit phase filled")
			}
			if params == nil {
				return fmt.Errorf("cancelled before published")
			}
			if ev.Round <= pubRound+params.CommitRounds {
				return fmt.Errorf("cancelled at round %d, commit deadline %d not yet passed",
					ev.Round, pubRound+params.CommitRounds)
			}
			sawCancelled = true
			settledRound = ev.Round
		default:
			return fmt.Errorf("unknown event %q", ev.Name)
		}
	}
	if sawFinalized == sawCancelled {
		return fmt.Errorf("settlement events malformed (finalized=%v cancelled=%v)",
			sawFinalized, sawCancelled)
	}
	if t.Finalized != sawFinalized || t.Cancelled != sawCancelled {
		return fmt.Errorf("event log settlement (finalized=%v cancelled=%v) disagrees with report (finalized=%v cancelled=%v)",
			sawFinalized, sawCancelled, t.Finalized, t.Cancelled)
	}
	// The log's verdicts must agree with the reported outcomes.
	for _, o := range t.Outcomes {
		if o.Paid != paid[o.Addr] || o.Rejected != rejected[o.Addr] || o.Revealed != revealed[o.Addr] {
			return fmt.Errorf("outcome for %s (paid=%v rejected=%v revealed=%v) disagrees with event log (%v/%v/%v)",
				o.Addr, o.Paid, o.Rejected, o.Revealed, paid[o.Addr], rejected[o.Addr], revealed[o.Addr])
		}
	}
	return nil
}
