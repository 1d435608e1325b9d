package chain

// Shard handles: everything one chain owns — its coin ledger, the chain
// itself (storage, mempool, scheduler, executor) and its off-chain content
// store. The marketplace and the streaming service each build their one
// chain through NewShard.

import (
	"dragoon/internal/ledger"
	"dragoon/internal/swarm"
)

// Shard is one chain with its own ledger and off-chain store.
type Shard struct {
	// Index labels the chain; the marketplace and the service use 0.
	Index  int
	Ledger *ledger.Ledger
	Chain  *Chain
	Store  *swarm.Store
}

// NewShard builds a fresh chain: new ledger, new chain over it with the
// given scheduler (FIFO if nil), new off-chain store.
func NewShard(index int, s Scheduler) *Shard {
	led := ledger.New()
	return &Shard{
		Index:  index,
		Ledger: led,
		Chain:  New(led, s),
		Store:  swarm.New(),
	}
}
