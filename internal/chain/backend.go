package chain

// This file defines the client-facing seam of the chain: the narrow surface
// protocol clients (internal/protocol) and observers (internal/contract)
// actually consume. Clients written against Backend instead of *Chain can be
// replayed against historical chain state — the mechanism a restoring
// service uses to reconstruct off-chain client state (consumed randomness,
// pending reveals, event cursors) deterministically from a snapshot: rebuild
// each client from its seed, re-step it round by round against a Backend
// that caps the visible round and discards its submissions, then flip the
// Backend live.

import "dragoon/internal/ledger"

// Backend is the chain surface an off-chain protocol client needs: the
// clock, transaction submission, contract deployment, the receipt log and
// per-contract event cursors. *Chain implements it; a replay backend
// implements it over a historical prefix of a chain.
type Backend interface {
	// Round returns the current clock round.
	Round() int
	// Submit queues a transaction for the current round's mempool.
	Submit(tx *Tx) error
	// Deploy installs a contract and charges deployment gas.
	Deploy(id ledger.ContractID, contract Contract, codeSize int, from Address) (*Receipt, error)
	// Receipts returns the retained receipts, in execution order.
	Receipts() []*Receipt
	// Cursor returns a new event cursor over one contract's log,
	// positioned at the start of the retained log.
	Cursor(id ledger.ContractID) *Cursor
}

var _ Backend = (*Chain)(nil)
