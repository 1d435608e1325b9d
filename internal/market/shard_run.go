package market

// What a marketplace run over S > 1 shards adds to the one run body in
// RunContext. Every shard is an independent chain (chain.ShardSet) with its
// own ledger, scheduler and off-chain store, mined in lockstep rounds; tasks
// are placed on shards by the Placement policy, and every population member
// is homed on shard (index mod S) where its balance is minted. A single
// chain is the one-shard case of the same body: it deploys no escrow, mints
// no bridge liquidity and has no settlement epoch. The run has two epochs:
//
//  1. the task epoch — StepRound, with the per-round mining fanned across
//     shards (chain.ShardSet.MineAll over internal/parallel, deterministic
//     join). No HTLC traffic exists here, so each shard's transcript is a
//     pure function of the tasks placed on it: shard-local transcripts are
//     identical to a one-shard run of the same tasks under the same
//     scheduler.
//  2. the settlement epoch — workers paid on a foreign shard move their
//     reward home through the HTLC escrow (see settle.go). Keeping all HTLC
//     traffic after every task has settled is what preserves per-task
//     fingerprints across shard counts even under stateful adversarial
//     schedulers: the scheduler consumes the identical task-epoch
//     transaction stream before the first lock appears.

import (
	"context"
	"fmt"

	"dragoon/internal/chain"
	"dragoon/internal/htlc"
	"dragoon/internal/ledger"
)

// settleSlack bounds the settlement epoch beyond the lock timeouts: a few
// rounds for lock placement, scheduler delays (at most one round each under
// the synchrony bound) and the final refund landing after expiry.
const settleSlack = 8

// openBridge deploys the HTLC escrow on every shard and funds the bridge's
// liquidity pool: enough on EVERY shard to counter-lock every reward in the
// worst case where all payouts claim to one shard. It adds the pool to
// minted and returns the per-shard liquidity. A task must never shadow the
// escrow's contract ID.
func openBridge(set *chain.ShardSet, specs []TaskSpec, minted []ledger.Amount) (ledger.Amount, error) {
	var liquidity ledger.Amount
	for ti := range specs {
		if ledger.ContractID(specs[ti].Instance.Task.ID) == htlc.ContractID {
			return 0, fmt.Errorf("market: task %d uses reserved contract ID %q", ti, htlc.ContractID)
		}
		liquidity += specs[ti].Instance.Task.Budget
	}
	for _, sh := range set.Shards() {
		if err := sh.Chain.RegisterContract(htlc.ContractID, htlc.New()); err != nil {
			return 0, fmt.Errorf("market: shard %d: %w", sh.Index, err)
		}
		if liquidity > 0 {
			sh.Ledger.Mint(ledger.AccountID(BridgeAddr), liquidity)
			minted[sh.Index] += liquidity
		}
	}
	return liquidity, nil
}

// settleAcrossShards runs the settlement epoch that follows a task epoch
// ending at round end: every worker paid on a shard other than its home
// shard moves the reward through the HTLC escrow.
func settleAcrossShards(ctx context.Context, cfg *Config, set *chain.ShardSet, tasks []*Runtime, taskShards []int, popAddrs []chain.Address, homeShards []int, end int) ([]Settlement, error) {
	settler := NewSettler(set.Shards(), cfg.Settle, cfg.Seed)
	addrHome := make(map[chain.Address]int, len(popAddrs))
	for i, a := range popAddrs {
		addrHome[a] = homeShards[i]
	}
	for ti, t := range tasks {
		ts := taskShards[ti]
		paid, _, _ := outcomesFromEvents(set.Shard(ts).Chain, t.id)
		reward := t.spec.Instance.Task.Reward()
		for _, addr := range t.addrs {
			if !paid[addr] || addrHome[addr] == ts {
				continue
			}
			settler.Add(string(t.id), addr, reward, ts, addrHome[addr])
		}
	}
	bound := end + cfg.Settle.lockRounds() + cfg.Settle.counterRounds() + settleSlack
	for settler.Pending() {
		round, err := set.Round()
		if err != nil {
			return nil, fmt.Errorf("market: %w", err)
		}
		if round >= bound {
			return nil, fmt.Errorf("market: settlement did not drain by round %d", bound)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("market: settle round %d: %w", round, err)
		}
		if err := settler.Step(); err != nil {
			return nil, err
		}
		if _, err := set.MineAll(ctx); err != nil {
			return nil, fmt.Errorf("market: settle round %d: %w", round, err)
		}
		if err := settler.Observe(); err != nil {
			return nil, err
		}
	}
	return settler.Results(), nil
}
