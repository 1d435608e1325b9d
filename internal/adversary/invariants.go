package adversary

import (
	"bytes"
	"fmt"

	"dragoon/internal/chain"
	"dragoon/internal/contract"
	"dragoon/internal/htlc"
	"dragoon/internal/keccak"
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
//  2. fund conservation: every shard's ledger conserves with every escrow
//     (task or HTLC) drained, and the supply summed over all shards is
//     exactly what the harness minted plus the bridge liquidity on each
//     shard;
//  3. exact balances: each requester holds 2B minus one reward per paid
//     worker (2B after a cancel — division dust always returns to her),
//     and each worker holds its pre-funding plus one reward per task that
//     paid it, summed over all shards, while the bridge keeps exactly its
//     liquidity;
//  4. honest payment: every honest worker of a finalized task is paid and
//     not rejected; on a cancelled task it is unpaid but lost nothing;
//  5. phase monotonicity: each contract's event log is a well-formed
//     phase story with every event inside its protocol window;
//  6. the HTLC story: every lock on every shard is settled — claimed
//     (within its timelock, with a preimage matching the lock hash) or
//     refunded (after it), never both, never neither.
//
// A one-shard report is the degenerate case of every check: no bridge
// liquidity, no HTLC events, no settlements. On more shards the worker and
// bridge totals stay exact whether transfers claimed or refunded.
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
	if err := r.checkHTLCStory(); err != nil {
		return fmt.Errorf("%s: %w", r.Name, err)
	}
	return nil
}

// balanceAcrossShards sums an address's balance over every chain of the run.
func (r *Report) balanceAcrossShards(addr chain.Address) ledger.Amount {
	var total ledger.Amount
	for _, sh := range r.Shards {
		total += sh.Ledger.Balance(ledger.AccountID(addr))
	}
	return total
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
	// them (a population member may be enrolled in several). The balance is
	// the SUM over all shards: a claimed transfer moves the reward to the
	// home shard, a refunded one leaves it on the task shard, and either way
	// the total is exact — the HTLC can neither create nor strand worker
	// coins.
	wantWorker := make(map[chain.Address]ledger.Amount)
	for i := range r.Tasks {
		t := &r.Tasks[i]
		if got := r.Shards[t.Shard].Ledger.Escrow(ledger.ContractID(t.ID)); got != 0 {
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
		if got := r.balanceAcrossShards(addr); got != want {
			return fmt.Errorf("worker %s balance %d, want %d", addr, got, want)
		}
	}
	// The bridge ends every run holding exactly the liquidity it was minted:
	// each claimed transfer costs it R on the home shard and repays R on the
	// task shard; refunded transfers cost it nothing.
	want := r.BridgeLiquidity * ledger.Amount(len(r.Shards))
	if got := r.balanceAcrossShards(r.Bridge); got != want {
		return fmt.Errorf("bridge %s holds %d across shards, minted liquidity %d", r.Bridge, got, want)
	}
	return nil
}

// checkSupply asserts that every shard's ledger conserves and that every
// coin on it is liquid again (no contract escrow, task or HTLC, holds
// anything), and that the supply summed over all shards is exactly the
// harness's own minted count plus the bridge liquidity on every shard.
func (r *Report) checkSupply() error {
	var total ledger.Amount
	for si, sh := range r.Shards {
		if err := sh.Ledger.CheckConservation(); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
		supply := sh.Ledger.TotalSupply()
		var liquid ledger.Amount
		for _, acct := range sh.Ledger.Accounts() {
			liquid += sh.Ledger.Balance(acct)
		}
		if liquid != supply {
			return fmt.Errorf("shard %d liquid balances sum to %d, supply %d (escrow not drained)", si, liquid, supply)
		}
		if got := sh.Ledger.Escrow(htlc.ContractID); got != 0 {
			return fmt.Errorf("shard %d HTLC escrow still holds %d (open lock)", si, got)
		}
		total += supply
	}
	if want := r.Minted + r.BridgeLiquidity*ledger.Amount(len(r.Shards)); total != want {
		return fmt.Errorf("supply %d across %d shards, minted %d plus bridge liquidity %d per shard",
			total, len(r.Shards), r.Minted, r.BridgeLiquidity)
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
// phase machine and its timing windows.
func (r *Report) checkPhaseStory(t *TaskReport) error {
	events := r.Shards[t.Shard].Chain.EventsFor(ledger.ContractID(t.ID))
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
			i := bytes.IndexByte(data, 0)
			if i <= 0 {
				return "", fmt.Errorf("event data lacks worker prefix")
			}
			return chain.Address(data[:i]), nil
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
		case "published":
			if params != nil {
				return fmt.Errorf("published twice")
			}
			var err error
			if params, err = contract.UnmarshalPublish(ev.Data); err != nil {
				return fmt.Errorf("undecodable publish event: %w", err)
			}
			pubRound = ev.Round
		case "committed":
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
		case "revealed":
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
		case "goldenrevealed":
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
		case "paid":
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
		case "rejected":
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
		case "finalized":
			if commitRound < 0 {
				return fmt.Errorf("finalized without a filled commit phase")
			}
			if ev.Round <= evalEnd {
				return fmt.Errorf("finalized at round %d inside the evaluation window (ends %d)",
					ev.Round, evalEnd)
			}
			sawFinalized = true
			settledRound = ev.Round
		case "cancelled":
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

// htlcLockStory is one lock's observed life on one shard.
type htlcLockStory struct {
	locked   *htlc.LockedEvent
	claimed  bool
	refunded bool
}

// checkHTLCStory replays every shard's HTLC event log against the escrow's
// safety rules, then cross-checks the settlement outcomes the harness
// reported:
//
//   - every claim and refund references an existing lock, never both fire
//     for one lock, and every lock eventually fires one of them (no coin is
//     stranded in the escrow — the escrow-drained supply check above is the
//     balance-level shadow of this event-level claim);
//   - claims land within the timelock and their preimage hashes to the lock
//     hash; refunds land strictly after the timelock;
//   - a settlement reported Claimed has claimed locks on BOTH shards (the
//     worker collected at home, the bridge collected on the task shard) and
//     one reported Refunded has its task-shard lock refunded;
//   - under ExpectRefund no settlement claimed at all.
func (r *Report) checkHTLCStory() error {
	stories := make([]map[string]*htlcLockStory, len(r.Shards))
	for si, sh := range r.Shards {
		stories[si] = make(map[string]*htlcLockStory)
		for _, ev := range sh.Chain.EventsFor(htlc.ContractID) {
			switch ev.Name {
			case "locked":
				le, err := htlc.ParseLockedEvent(ev.Data)
				if err != nil {
					return fmt.Errorf("shard %d: undecodable locked event: %w", si, err)
				}
				if stories[si][le.ID] != nil {
					return fmt.Errorf("shard %d: lock %s created twice", si, le.ID)
				}
				stories[si][le.ID] = &htlcLockStory{locked: le}
			case "claimed":
				ce, err := htlc.ParseClaimedEvent(ev.Data)
				if err != nil {
					return fmt.Errorf("shard %d: undecodable claimed event: %w", si, err)
				}
				st := stories[si][ce.ID]
				if st == nil {
					return fmt.Errorf("shard %d: claim of unknown lock %s", si, ce.ID)
				}
				if st.claimed || st.refunded {
					return fmt.Errorf("shard %d: lock %s settled twice", si, ce.ID)
				}
				if ev.Round > int(st.locked.Timeout) {
					return fmt.Errorf("shard %d: lock %s claimed at round %d after timelock %d",
						si, ce.ID, ev.Round, st.locked.Timeout)
				}
				if keccak.Sum256(ce.Preimage) != st.locked.Hash {
					return fmt.Errorf("shard %d: lock %s claimed with a preimage that does not hash to the lock", si, ce.ID)
				}
				st.claimed = true
			case "refunded":
				id, err := htlc.ParseRefundedEvent(ev.Data)
				if err != nil {
					return fmt.Errorf("shard %d: undecodable refunded event: %w", si, err)
				}
				st := stories[si][id]
				if st == nil {
					return fmt.Errorf("shard %d: refund of unknown lock %s", si, id)
				}
				if st.claimed || st.refunded {
					return fmt.Errorf("shard %d: lock %s settled twice", si, id)
				}
				if ev.Round <= int(st.locked.Timeout) {
					return fmt.Errorf("shard %d: lock %s refunded at round %d inside timelock %d",
						si, id, ev.Round, st.locked.Timeout)
				}
				st.refunded = true
			default:
				return fmt.Errorf("shard %d: unknown HTLC event %q", si, ev.Name)
			}
		}
		for id, st := range stories[si] {
			if st.claimed == st.refunded {
				return fmt.Errorf("shard %d: lock %s neither claimed nor refunded (amount %d stranded)",
					si, id, st.locked.Amount)
			}
		}
	}
	for _, s := range r.Settlements {
		if s.Claimed == s.Refunded {
			return fmt.Errorf("settlement %s reports claimed=%v refunded=%v", s.LockID, s.Claimed, s.Refunded)
		}
		if r.ExpectRefund && s.Claimed {
			return fmt.Errorf("settlement %s claimed, scenario predicts refunds", s.LockID)
		}
		taskLock := stories[s.TaskShard][s.LockID]
		if taskLock == nil {
			return fmt.Errorf("settlement %s has no task-shard lock", s.LockID)
		}
		if s.Claimed {
			homeLock := stories[s.HomeShard][s.LockID]
			if homeLock == nil || !homeLock.claimed {
				return fmt.Errorf("settlement %s reported claimed but the home-shard lock was not", s.LockID)
			}
			if !taskLock.claimed {
				return fmt.Errorf("settlement %s reported claimed but the bridge never collected the task-shard lock", s.LockID)
			}
		} else if !taskLock.refunded {
			return fmt.Errorf("settlement %s reported refunded but the task-shard lock was not", s.LockID)
		}
	}
	return nil
}
