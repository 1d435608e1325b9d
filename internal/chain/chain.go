// Package chain simulates the permissionless blockchain environment the
// Dragoon contract runs on. It reproduces the three properties the paper's
// contract functionality C_hit (Fig. 4) extracts from a real blockchain:
//
//  1. transparent, deterministic execution of a stateful program, with gas
//     metering calibrated to Ethereum's Istanbul schedule (package gas), so
//     the handling-fee experiments of Table III can be regenerated;
//  2. access to the cryptocurrency ledger (package ledger) for conditional
//     payments, with transactional semantics (a reverted call moves no
//     coins and writes no state);
//  3. the synchronous network model with a rushing adversary: time advances
//     in clock rounds, and a pluggable Scheduler — the adversary — may
//     reorder the transactions of a round and delay any transaction by at
//     most one round, exactly the power the paper grants the adversary.
package chain

import (
	"errors"
	"fmt"
	"sync"

	"dragoon/internal/gas"
	"dragoon/internal/ledger"
)

// Address identifies an externally-owned account (a protocol party).
type Address string

// Tx is a transaction invoking a contract method.
type Tx struct {
	From     Address
	Contract ledger.ContractID
	Method   string
	Data     []byte

	arrivalRound int
	delayed      bool
	submitted    bool
}

// Event is an emitted contract log entry. As on Ethereum, events are not
// readable by contracts, only by off-chain clients; Dragoon stores workers'
// ciphertexts in events while the contract keeps only their hashes (§VI,
// on-chain optimization (ii)).
type Event struct {
	Contract ledger.ContractID
	Name     string
	Data     []byte
	Round    int
}

// Receipt records the outcome of an executed transaction.
type Receipt struct {
	Tx      *Tx
	Round   int
	GasUsed uint64
	Err     error // non-nil if the call reverted
	Events  []Event
}

// Reverted reports whether the transaction reverted.
func (r *Receipt) Reverted() bool { return r.Err != nil }

// Contract is a stateful on-chain program. Execute must perform all state
// access through env so that gas is metered and reverts roll back cleanly.
type Contract interface {
	Execute(env *Env, from Address, method string, data []byte) error
}

// Scheduler is the network adversary. Each round it is consulted with the
// transactions that must be executed this round (those already delayed
// once — synchrony forbids delaying further) and the fresh arrivals; it
// returns the execution order and the set of fresh transactions to delay
// into the next round. Implementations must return a permutation of
// mandatory ∪ (fresh − delay).
type Scheduler interface {
	Schedule(round int, mandatory, fresh []*Tx) (order, delay []*Tx)
}

// FIFOScheduler is the honest network: everything executes in arrival order.
type FIFOScheduler struct{}

// Schedule implements Scheduler.
func (FIFOScheduler) Schedule(_ int, mandatory, fresh []*Tx) (order, delay []*Tx) {
	return append(append([]*Tx{}, mandatory...), fresh...), nil
}

// Chain is the simulated blockchain. It is safe for concurrent use.
type Chain struct {
	mu        sync.Mutex
	ledger    *ledger.Ledger
	round     int
	version   uint64 // state version: bumps once per committed state-writing tx
	contracts map[ledger.ContractID]Contract
	storage   map[ledger.ContractID]map[string][]byte
	mempool   []*Tx
	receipts  []*Receipt
	events    []Event
	eventsFor map[ledger.ContractID][]Event
	scheduler Scheduler
	gasByAddr map[Address]uint64
	// gasByContract indexes gas per (contract, method) incrementally, so
	// per-task gas reports survive receipt retention trimming (a long-lived
	// service cannot afford an end-of-run scan over all receipts, and may
	// have dropped them anyway).
	gasByContract map[ledger.ContractID]map[string]uint64

	// execWorkers selects the round-execution engine: <= 1 executes the
	// schedule strictly sequentially; > 1 runs the optimistic parallel
	// executor (executor.go) with that many workers. The two are
	// byte-identical in every observable (receipts, gas, events, ledger).
	execWorkers int
	// Executor telemetry (see ExecStats).
	execSpeculated uint64
	execConflicts  uint64
}

// New creates a chain over l with the given adversary (FIFO if nil).
func New(l *ledger.Ledger, s Scheduler) *Chain {
	if s == nil {
		s = FIFOScheduler{}
	}
	return &Chain{
		ledger:        l,
		contracts:     make(map[ledger.ContractID]Contract),
		storage:       make(map[ledger.ContractID]map[string][]byte),
		eventsFor:     make(map[ledger.ContractID][]Event),
		scheduler:     s,
		gasByAddr:     make(map[Address]uint64),
		gasByContract: make(map[ledger.ContractID]map[string]uint64),
	}
}

// Ledger returns the underlying coin functionality.
func (c *Chain) Ledger() *ledger.Ledger { return c.ledger }

// Round returns the current clock round.
func (c *Chain) Round() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.round
}

// Deploy installs a contract and charges the deployer realistic deployment
// gas (intrinsic create cost plus per-byte code deposit for codeSize bytes).
func (c *Chain) Deploy(id ledger.ContractID, contract Contract, codeSize int, from Address) (*Receipt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.contracts[id]; exists {
		return nil, fmt.Errorf("chain: contract %q already deployed", id)
	}
	c.contracts[id] = contract
	c.storage[id] = make(map[string][]byte)
	used := uint64(gas.TxBase + gas.TxCreate + gas.CodeDepositPerByte*codeSize)
	c.gasByAddr[from] += used
	c.chargeContract(id, "deploy", used)
	rcpt := &Receipt{
		Tx:      &Tx{From: from, Contract: id, Method: "deploy"},
		Round:   c.round,
		GasUsed: used,
	}
	c.receipts = append(c.receipts, rcpt)
	return rcpt, nil
}

// RegisterContract installs a contract program WITHOUT charging deployment
// gas or appending a receipt — the restore path: a snapshot carries contract
// storage but not programs (Go code is not data), so a restoring service
// re-registers each live contract before resuming. It refuses to clobber an
// installed program.
func (c *Chain) RegisterContract(id ledger.ContractID, contract Contract) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.contracts[id]; exists {
		return fmt.Errorf("chain: contract %q already deployed", id)
	}
	c.contracts[id] = contract
	if c.storage[id] == nil {
		c.storage[id] = make(map[string][]byte)
	}
	return nil
}

// chargeContract accumulates the per-contract, per-method gas index. Caller
// holds c.mu.
func (c *Chain) chargeContract(id ledger.ContractID, method string, used uint64) {
	methods := c.gasByContract[id]
	if methods == nil {
		methods = make(map[string]uint64)
		c.gasByContract[id] = methods
	}
	methods[method] += used
}

// GasByMethodFor returns one contract's cumulative gas per method. Unlike a
// scan over Receipts, the index is maintained incrementally and survives
// receipt retention trimming; it is released by PruneContract.
func (c *Chain) GasByMethodFor(id ledger.ContractID) map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.gasByContract[id]))
	for m, g := range c.gasByContract[id] {
		out[m] = g
	}
	return out
}

// Submit queues a transaction for the current round's mempool. Each *Tx
// value may be submitted exactly once: the chain owns the transaction's
// synchrony bookkeeping (arrivalRound, the one-round delay marker) after
// submission, so resubmitting a pointer would silently clobber it — a
// reused delayed transaction could dodge the synchrony bound entirely.
// Submit rejects the reuse instead; callers wanting a retry must build a
// fresh Tx value.
func (c *Chain) Submit(tx *Tx) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tx.submitted {
		return fmt.Errorf("chain: transaction %s/%s from %s already submitted (reuse would corrupt synchrony bookkeeping; build a new Tx)",
			tx.Contract, tx.Method, tx.From)
	}
	tx.submitted = true
	tx.arrivalRound = c.round
	c.mempool = append(c.mempool, tx)
	return nil
}

// MineRound consults the adversary, executes the scheduled transactions in
// order, advances the clock, and returns the round's receipts. It returns an
// error only if the Scheduler violates its contract.
func (c *Chain) MineRound() ([]*Receipt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	var mandatory, fresh []*Tx
	for _, tx := range c.mempool {
		if tx.delayed {
			mandatory = append(mandatory, tx)
		} else {
			fresh = append(fresh, tx)
		}
	}
	order, delay := c.scheduler.Schedule(c.round, mandatory, fresh)
	if err := validateSchedule(mandatory, fresh, order, delay); err != nil {
		return nil, err
	}

	receipts := c.executeRound(order)
	for _, tx := range delay {
		tx.delayed = true
	}
	c.mempool = append([]*Tx{}, delay...)
	c.round++
	return receipts, nil
}

// validateSchedule checks that the adversary returned a legal schedule:
// order ∪ delay is exactly mandatory ∪ fresh, delay ⊆ fresh, no duplicates.
func validateSchedule(mandatory, fresh, order, delay []*Tx) error {
	seen := make(map[*Tx]bool, len(order)+len(delay))
	for _, tx := range append(append([]*Tx{}, order...), delay...) {
		if seen[tx] {
			return errors.New("chain: scheduler returned a duplicate transaction")
		}
		seen[tx] = true
	}
	if len(seen) != len(mandatory)+len(fresh) {
		return fmt.Errorf("chain: scheduler returned %d txs, expected %d",
			len(seen), len(mandatory)+len(fresh))
	}
	for _, tx := range mandatory {
		if !seen[tx] {
			return errors.New("chain: scheduler dropped a transaction")
		}
	}
	for _, tx := range delay {
		if tx.delayed {
			return errors.New("chain: scheduler delayed a transaction twice (synchrony violation)")
		}
	}
	for _, tx := range fresh {
		if !seen[tx] {
			return errors.New("chain: scheduler dropped a transaction")
		}
	}
	return nil
}

// run executes one transaction against the chain's current committed state
// WITHOUT committing its journal: the receipt carries the gas and the
// revert error (if any), and the returned Env holds the call's read set,
// write journal and events. The Env is nil only for a transaction to an
// unknown contract. run performs no writes, so many runs may proceed
// concurrently as long as nothing commits underneath them — the
// speculation phase of the parallel executor. Caller holds c.mu.
func (c *Chain) run(tx *Tx) (*Receipt, *Env) {
	rcpt := &Receipt{Tx: tx, Round: c.round}
	contract, ok := c.contracts[tx.Contract]
	if !ok {
		rcpt.GasUsed = gas.TxBase
		rcpt.Err = fmt.Errorf("chain: no contract %q", tx.Contract)
		return rcpt, nil
	}
	env := newEnv(c, tx.Contract)
	env.UseGas(gas.TxBase + gas.CalldataCost(tx.Data))
	rcpt.Err = contract.Execute(env, tx.From, tx.Method, tx.Data)
	rcpt.GasUsed = env.gasUsed
	return rcpt, env
}

// commitTx finalizes one executed transaction in schedule order: on success
// it applies the journal (ledger freezes/pays, then storage), publishes the
// events and bumps the state version; reverts discard the journal. Gas
// accounting and the receipt log are appended either way. Caller holds
// c.mu.
func (c *Chain) commitTx(rcpt *Receipt, env *Env) {
	if env != nil && rcpt.Err == nil {
		if applyErr := env.commit(); applyErr != nil {
			rcpt.Err = applyErr
		} else {
			rcpt.Events = env.events
			c.events = append(c.events, env.events...)
			// Every event of this call carries the env's contract ID (Emit
			// stamps it), so the whole batch indexes there.
			c.eventsFor[env.contractID] = append(c.eventsFor[env.contractID], env.events...)
			if env.hasWrites() {
				c.version++
			}
		}
	}
	c.gasByAddr[rcpt.Tx.From] += rcpt.GasUsed
	c.chargeContract(rcpt.Tx.Contract, rcpt.Tx.Method, rcpt.GasUsed)
	c.receipts = append(c.receipts, rcpt)
}

// execute runs one transaction with transactional (revert-on-error)
// semantics against committed state — the sequential reference engine, and
// the deterministic re-execution path of the parallel executor. Caller
// holds c.mu.
func (c *Chain) execute(tx *Tx) (*Receipt, *Env) {
	rcpt, env := c.run(tx)
	c.commitTx(rcpt, env)
	return rcpt, env
}

// Receipts returns all receipts so far, in execution order.
func (c *Chain) Receipts() []*Receipt {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Receipt, len(c.receipts))
	copy(out, c.receipts)
	return out
}

// Events returns all events emitted so far, in emission order.
func (c *Chain) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// EventsFor returns all events emitted by one contract, in emission order.
// Observers polling a single contract should prefer this (or a Cursor) over
// Events: the cost is proportional to that contract's own log, not the
// global one, which matters when many contracts share the chain.
func (c *Chain) EventsFor(id ledger.ContractID) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.eventsFor[id]))
	copy(out, c.eventsFor[id])
	return out
}

// ErrPruned reports that a cursor's position lies beyond the end of its
// contract's event log — the log was pruned (PruneContract) underneath the
// cursor. Before this error existed a pruned log was indistinguishable from
// an empty one, and a stale cursor would silently treat the truncated log as
// "no new events" (or, re-created, rescan from zero and double-deliver);
// observers now get a typed error to detect the gap. Test with errors.Is.
var ErrPruned = errors.New("chain: event log pruned beneath cursor")

// Cursor is a stateful per-contract event cursor: each Poll returns only the
// events the contract emitted since the previous Poll, so a client polling
// every round pays O(new events) instead of rescanning the whole log. A
// cursor handed out by a ReplayBackend sees only events of rounds below the
// backend's cap until the backend goes live, then drains normally from
// wherever it stands. A Cursor is not safe for concurrent use by multiple
// goroutines, but distinct cursors over one chain are independent.
type Cursor struct {
	chain  *Chain
	id     ledger.ContractID
	replay *ReplayBackend // nil for a live cursor
	next   int
}

// Cursor returns a new event cursor for one contract, positioned at the
// start of its log.
func (c *Chain) Cursor(id ledger.ContractID) *Cursor {
	return &Cursor{chain: c, id: id}
}

// Poll returns the contract's events emitted since the last Poll (nil if
// none) and advances the cursor past them. It returns ErrPruned (wrapped,
// with the contract ID) if the log was pruned beneath the cursor's position:
// the events between the cursor and the truncation point are gone, so the
// observer's incremental view can no longer be completed.
func (cur *Cursor) Poll() ([]Event, error) {
	cur.chain.mu.Lock()
	defer cur.chain.mu.Unlock()
	evs := cur.chain.eventsFor[cur.id]
	limit := len(evs)
	if b := cur.replay; b != nil && !b.live {
		limit = 0
		for limit < len(evs) && evs[limit].Round < b.cap {
			limit++
		}
	}
	if cur.next > limit {
		return nil, fmt.Errorf("chain: contract %q: %w", cur.id, ErrPruned)
	}
	if cur.next == limit {
		return nil, nil
	}
	out := make([]Event, limit-cur.next)
	copy(out, evs[cur.next:limit])
	cur.next = limit
	return out, nil
}

// PruneContract releases every trace of a settled contract: its program, its
// storage, its per-contract event log and its gas index. It refuses while
// the contract still holds escrowed coins — pruning is for contracts whose
// settlement is complete, and dropping an unsettled escrow's program would
// strand funds. Stale cursors over the pruned log report ErrPruned on their
// next Poll instead of silently missing the discarded events.
func (c *Chain) PruneContract(id ledger.ContractID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if esc := c.ledger.Escrow(id); esc != 0 {
		return fmt.Errorf("chain: cannot prune contract %q: %d coins still escrowed", id, esc)
	}
	delete(c.contracts, id)
	delete(c.storage, id)
	delete(c.eventsFor, id)
	delete(c.gasByContract, id)
	return nil
}

// TrimBefore drops global receipts and events older than the given round —
// the retention hook a long-lived service calls between rounds to bound the
// chain's memory (keep the last N rounds, in the spirit of a light client
// that retains only recent history). Both logs are append-only in
// nondecreasing round order, so the trim is a prefix cut. Per-contract event
// logs are NOT trimmed here: a live contract's observers replay from its own
// log, which is bounded by the task's lifetime and released wholesale by
// PruneContract at settlement. Callers must not trim past the oldest round
// any live observer still needs (e.g. the admission round of the oldest
// unsettled task).
func (c *Chain) TrimBefore(round int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cut := 0
	for cut < len(c.receipts) && c.receipts[cut].Round < round {
		cut++
	}
	if cut > 0 {
		c.receipts = append([]*Receipt{}, c.receipts[cut:]...)
	}
	cut = 0
	for cut < len(c.events) && c.events[cut].Round < round {
		cut++
	}
	if cut > 0 {
		c.events = append([]Event{}, c.events[cut:]...)
	}
}

// GasUsedBy returns the cumulative gas paid by an address.
func (c *Chain) GasUsedBy(a Address) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gasByAddr[a]
}

// TotalGas returns the cumulative gas used by all transactions.
func (c *Chain) TotalGas() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t uint64
	for _, g := range c.gasByAddr {
		t += g
	}
	return t
}
