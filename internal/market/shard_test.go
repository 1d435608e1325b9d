package market_test

import (
	"fmt"
	"testing"

	"dragoon/internal/chain"
	"dragoon/internal/ledger"
	"dragoon/internal/market"
)

// runSharded runs the standard 8-task marketplace at the given shard count
// and parallelism.
func runShardedConfig(t *testing.T, shards, parallelism int, mutate func(*market.Config)) *market.Result {
	t.Helper()
	cfg := buildConfig(t)
	cfg.Shards = shards
	cfg.Parallelism = parallelism
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := market.Run(cfg)
	if err != nil {
		t.Fatalf("shards=%d parallelism=%d: %v", shards, parallelism, err)
	}
	return res
}

// crossShardBalance sums one address's balance across every shard ledger.
func crossShardBalance(res *market.Result, addr chain.Address) ledger.Amount {
	var total ledger.Amount
	for _, sh := range res.Shards {
		total += sh.Ledger.Balance(ledger.AccountID(addr))
	}
	return total
}

// TestShardedMatchesUnsharded is the sharding determinism test: running
// the 8-task marketplace on 1, 2 and 4 shards must leave every task's
// observable end state — payments, gas, rounds, harvested answers — byte-
// identical to the Shards: 0 run, because shards share nothing and all
// cross-shard traffic settles in a dedicated epoch after the tasks end.
// One shard is the unsharded run itself: one shard handle, no escrow, no
// bridge account, nothing to settle. On more shards every cross-shard
// payout must claim through the HTLC escrow, leaving each worker's
// cross-shard total equal to its single-chain balance and the bridge's
// total equal to its minted liquidity.
func TestShardedMatchesUnsharded(t *testing.T) {
	base := runShardedConfig(t, 0, 0, nil)
	want := make([]string, len(base.Tasks))
	for ti := range base.Tasks {
		want[ti] = marketTaskFP(&base.Tasks[ti])
	}

	for _, shards := range []int{1, 2, 4} {
		res := runShardedConfig(t, shards, 0, nil)
		if len(res.Shards) != shards {
			t.Fatalf("shards=%d: result has %d shard handles", shards, len(res.Shards))
		}
		for ti := range res.Tasks {
			if got := marketTaskFP(&res.Tasks[ti]); got != want[ti] {
				t.Errorf("shards=%d: task %d diverged from single-chain run\n--- sharded ---\n%s\n--- single ---\n%s",
					shards, ti, got, want[ti])
			}
			if wantShard := ti % shards; res.TaskShards[ti] != wantShard {
				t.Errorf("shards=%d: task %d placed on shard %d, want %d (round-robin)",
					shards, ti, res.TaskShards[ti], wantShard)
			}
		}

		if shards == 1 {
			if len(res.Settlements) != 0 || res.BridgeLiquidity != 0 {
				t.Errorf("shards=1: %d settlements, bridge liquidity %d; want none", len(res.Settlements), res.BridgeLiquidity)
			}
			for _, acct := range res.Ledger.Accounts() {
				if acct == ledger.AccountID(market.BridgeAddr) {
					t.Errorf("shards=1: ledger has a %s account", acct)
				}
			}
		} else {
			// Every cross-shard payout settles by claiming, and the coins
			// land where they should: worker totals match the single-chain
			// balances, the bridge keeps exactly its minted liquidity.
			if len(res.Settlements) == 0 {
				t.Fatalf("shards=%d: no cross-shard settlements — workload degenerated", shards)
			}
			for _, s := range res.Settlements {
				if !s.Claimed || s.Refunded {
					t.Errorf("shards=%d: settlement %s not claimed: %+v", shards, s.LockID, s)
				}
				home := res.Shards[s.HomeShard].Ledger.Balance(ledger.AccountID(s.Worker))
				if home < s.Amount {
					t.Errorf("shards=%d: worker %s home balance %d < claimed reward %d", shards, s.Worker, home, s.Amount)
				}
			}
		}
		for ti := range base.Tasks {
			for _, o := range base.Tasks[ti].Outcomes {
				got := crossShardBalance(res, o.Addr)
				wantBal := base.Ledger.Balance(ledger.AccountID(o.Addr))
				if got != wantBal {
					t.Errorf("shards=%d: worker %s cross-shard total %d, single-chain balance %d",
						shards, o.Addr, got, wantBal)
				}
			}
		}
		wantBridge := res.BridgeLiquidity * ledger.Amount(shards)
		if got := crossShardBalance(res, res.Bridge); got != wantBridge {
			t.Errorf("shards=%d: bridge cross-shard total %d, want %d", shards, got, wantBridge)
		}
		var supply ledger.Amount
		for si, sh := range res.Shards {
			if got := sh.Ledger.TotalSupply(); got != res.MintedByShard[si] {
				t.Errorf("shards=%d: shard %d supply %d != minted %d", shards, si, got, res.MintedByShard[si])
			}
			supply += sh.Ledger.TotalSupply()
		}
		if supply != sumAmounts(res.MintedByShard) {
			t.Errorf("shards=%d: total supply %d != total minted %d", shards, supply, sumAmounts(res.MintedByShard))
		}
	}
}

func sumAmounts(xs []ledger.Amount) ledger.Amount {
	var total ledger.Amount
	for _, x := range xs {
		total += x
	}
	return total
}

// shardedFP folds a whole sharded run — per-task fingerprints plus the
// settlement outcomes — into one comparable string.
func shardedFP(res *market.Result) string {
	s := fmt.Sprintf("rounds=%d gas=%d\n", res.Rounds, res.GasTotal)
	for ti := range res.Tasks {
		s += fmt.Sprintf("task %d shard %d\n%s", ti, res.TaskShards[ti], marketTaskFP(&res.Tasks[ti]))
	}
	for _, st := range res.Settlements {
		s += fmt.Sprintf("settle %+v\n", st)
	}
	return s
}

// TestShardMiningParallelismInvariance certifies that mining the shards
// concurrently (one goroutine per shard, deterministic join) is observably
// identical to mining them one by one — tasks, gas, rounds and settlements
// alike. Under -race it also certifies the shard fan-out is race-free.
func TestShardMiningParallelismInvariance(t *testing.T) {
	seq := shardedFP(runShardedConfig(t, 4, 1, nil))
	par := shardedFP(runShardedConfig(t, 4, 0, nil))
	if seq != par {
		t.Errorf("parallel shard mining diverged from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// TestShardedSilentBridgeRefunds fault-injects a bridge that never posts
// counter-locks: every cross-shard transfer must time out and refund, and
// no coins may move — each worker keeps its reward on the task shard and
// the bridge keeps exactly its liquidity.
func TestShardedSilentBridgeRefunds(t *testing.T) {
	base := runShardedConfig(t, 0, 0, nil)
	res := runShardedConfig(t, 2, 0, func(cfg *market.Config) {
		cfg.Settle.SilentBridge = true
		// A short lock keeps the refund epoch cheap.
		cfg.Settle.LockRounds = 4
	})
	if len(res.Settlements) == 0 {
		t.Fatal("no cross-shard settlements — workload degenerated")
	}
	for _, s := range res.Settlements {
		if s.Claimed || !s.Refunded {
			t.Errorf("settlement %s should have refunded: %+v", s.LockID, s)
		}
		task := res.Shards[s.TaskShard].Ledger.Balance(ledger.AccountID(s.Worker))
		if task < s.Amount {
			t.Errorf("worker %s task-shard balance %d < refunded reward %d", s.Worker, task, s.Amount)
		}
	}
	for ti := range base.Tasks {
		for _, o := range base.Tasks[ti].Outcomes {
			got := crossShardBalance(res, o.Addr)
			want := base.Ledger.Balance(ledger.AccountID(o.Addr))
			if got != want {
				t.Errorf("worker %s cross-shard total %d after refunds, want %d", o.Addr, got, want)
			}
		}
	}
	if got, want := crossShardBalance(res, res.Bridge), res.BridgeLiquidity*2; got != want {
		t.Errorf("bridge cross-shard total %d after refunds, want %d", got, want)
	}
}

// TestPlaceLeastLoaded pins the least-loaded placement policy: tasks are
// assigned in order to the shard with the fewest enrolled workers,
// breaking ties toward the lowest index.
func TestPlaceLeastLoaded(t *testing.T) {
	cfg := buildConfig(t)
	cfg.Shards = 3
	cfg.Placement = market.PlaceLeastLoaded
	// Standard config: tasks 0..6 enroll 6 workers each, task 7 enrolls 1.
	got := market.PlaceTasks(&cfg, 3)
	want := []int{0, 1, 2, 0, 1, 2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("least-loaded placement = %v, want %v", got, want)
		}
	}
	if market.PlaceLeastLoaded.String() != "least-loaded" || market.PlaceRoundRobin.String() != "round-robin" {
		t.Fatal("Placement.String mismatch")
	}
}
