package dragoon

import (
	"context"

	"dragoon/internal/market"
)

// MarketplaceConfig configures a multi-task marketplace run: M concurrent
// HIT contracts on a shared simulated chain, with a shared worker
// population whose members may enroll in several tasks, optionally one
// ElGamal key pair across all requesters (§VI), and a single network
// adversary scheduling every task's transactions together.
type MarketplaceConfig = market.Config

// MarketplaceTask describes one HIT instance inside a marketplace run: its
// task instance, enrolled population members (by index, in arrival order),
// requester policy/address/key and an optional pinned seed.
type MarketplaceTask = market.TaskSpec

// MarketplaceResult reports a completed marketplace run: per-task results
// plus the shared chain and ledger.
type MarketplaceResult = market.Result

// MarketplaceTaskResult is one task's end state within a marketplace run:
// payments, per-method gas, rounds, and the harvested answers.
type MarketplaceTaskResult = market.TaskResult

// SimulateMarketplace runs every task of the marketplace to completion on
// one shared chain and returns the per-task results. A seeded run is
// deterministic at any Parallelism level, and with an honest scheduler each
// task's payments, gas and harvested answers are identical to running that
// task alone (Simulate is exactly the M=1 case). It is
// SimulateMarketplaceContext with a background context.
func SimulateMarketplace(cfg MarketplaceConfig) (*MarketplaceResult, error) {
	return SimulateMarketplaceContext(context.Background(), cfg)
}

// SimulateMarketplaceContext runs the marketplace to completion under ctx.
// Cancellation is checked at every round boundary, so a cancelled run returns
// ctx.Err() with the shared chain left at a consistent round. A run that
// completes is byte-identical to SimulateMarketplace with the same
// configuration.
func SimulateMarketplaceContext(ctx context.Context, cfg MarketplaceConfig) (*MarketplaceResult, error) {
	return market.RunContext(ctx, cfg)
}
