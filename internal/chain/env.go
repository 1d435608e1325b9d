package chain

import (
	"fmt"
	"math/big"

	"dragoon/internal/gas"
	"dragoon/internal/group"
	"dragoon/internal/keccak"
	"dragoon/internal/ledger"
)

// rwKind discriminates the three state spaces conflict detection tracks.
type rwKind uint8

const (
	rwStorage rwKind = iota + 1 // a contract storage slot
	rwBalance                   // a ledger account balance
	rwEscrow                    // a contract escrow balance
)

// rwKey identifies one unit of chain state for read/write-set conflict
// detection: a storage slot (owner = contract ID), an account balance
// (owner = account), or a contract escrow (owner = contract ID).
type rwKey struct {
	kind  rwKind
	owner string
	slot  string // storage key; empty for balance/escrow
}

// Env is the metered execution environment handed to a contract call. All
// state effects (storage writes, events, ledger transfers) are journaled and
// applied only if the call completes without error, giving EVM-style revert
// semantics. Every base-state read the call performs — storage loads,
// existence checks (SSTORE billing depends on them), ledger balance reads
// inside Freeze, escrow reads inside Pay — lands in the call's read set,
// and the journals double as its write set, so the parallel executor can
// decide after the fact whether a speculative execution observed state any
// lower-indexed transaction went on to write.
//
// Base-state reads go straight to the chain's committed storage and live
// ledger. During sequential execution (and ordered re-execution) those
// reflect every lower-indexed transaction's writes; during the parallel
// executor's speculation phase nothing commits, so they are a stable
// pre-round snapshot that many goroutines may read at once. Committed
// storage values are never handed out: the Env copies them first.
type Env struct {
	chain      *Chain
	contractID ledger.ContractID
	gasUsed    uint64

	// reads is the call's read set over base state. Reads satisfied by the
	// call's own journal are not base reads and are not recorded.
	reads map[rwKey]struct{}

	// Journals (the write set).
	storeWrites map[string][]byte
	events      []Event
	freezes     []ledgerOp
	pays        []ledgerOp

	// Pending balance deltas so validation sees intra-call effects.
	pendingFrozen map[ledger.AccountID]ledger.Amount
	pendingEscrow int64 // net escrow change within this call
}

type ledgerOp struct {
	party  ledger.AccountID
	amount ledger.Amount
}

func newEnv(c *Chain, id ledger.ContractID) *Env {
	return &Env{
		chain:         c,
		contractID:    id,
		reads:         make(map[rwKey]struct{}),
		storeWrites:   make(map[string][]byte),
		pendingFrozen: make(map[ledger.AccountID]ledger.Amount),
	}
}

// Round returns the current clock round.
func (e *Env) Round() int { return e.chain.round }

// GasUsed returns the gas consumed so far in this call.
func (e *Env) GasUsed() uint64 { return e.gasUsed }

// UseGas charges raw gas (used for calibrated execution overheads).
func (e *Env) UseGas(n uint64) { e.gasUsed += n }

// Keccak computes keccak256 over data, charging the SHA3 opcode cost.
func (e *Env) Keccak(data []byte) [32]byte {
	e.UseGas(gas.KeccakCost(len(data)))
	return keccak.Sum256(data)
}

// ChargeMemory charges linear memory-expansion cost for processing n bytes
// of bulk payload.
func (e *Env) ChargeMemory(n int) {
	e.UseGas(gas.MemoryWord * uint64((n+31)/32))
}

// recordRead adds one base-state key to the call's read set.
func (e *Env) recordRead(k rwKey) {
	e.reads[k] = struct{}{}
}

// StoreSet writes a storage slot (journaled; charged as SSTORE). The
// existence check deciding between the set and reset prices is a genuine
// state read and enters the read set.
func (e *Env) StoreSet(key string, val []byte) {
	if e.exists(key) {
		e.UseGas(gas.SStoreReset)
	} else {
		e.UseGas(gas.SStoreSet)
	}
	cp := make([]byte, len(val))
	copy(cp, val)
	e.storeWrites[key] = cp
}

// StoreGet reads a storage slot (charged as SLOAD), observing journaled
// writes from earlier in the same call.
func (e *Env) StoreGet(key string) ([]byte, bool) {
	e.UseGas(gas.SLoad)
	return e.loadRaw(key)
}

// loadRaw returns a copy of the slot's current value: the call's own
// journaled write if present, otherwise the base state (recorded as a
// read).
func (e *Env) loadRaw(key string) ([]byte, bool) {
	if v, ok := e.storeWrites[key]; ok {
		return append([]byte{}, v...), true
	}
	e.recordRead(rwKey{kind: rwStorage, owner: string(e.contractID), slot: key})
	v, ok := e.chain.storage[e.contractID][key]
	if !ok {
		return nil, false
	}
	return append([]byte{}, v...), true
}

// exists reports whether the slot currently holds a value, without copying
// it — the existence-only lookup the SSTORE billing path needs (copying
// every prior value just to test existence made each overwrite allocate).
func (e *Env) exists(key string) bool {
	if _, ok := e.storeWrites[key]; ok {
		return true
	}
	e.recordRead(rwKey{kind: rwStorage, owner: string(e.contractID), slot: key})
	_, ok := e.chain.storage[e.contractID][key]
	return ok
}

// Emit records an event (journaled; charged as LOG with the given topics).
func (e *Env) Emit(name string, topics int, data []byte) {
	e.UseGas(gas.LogCost(topics, len(data)))
	cp := make([]byte, len(data))
	copy(cp, data)
	e.events = append(e.events, Event{
		Contract: e.contractID,
		Name:     name,
		Data:     cp,
		Round:    e.chain.round,
	})
}

// Freeze escrows amount coins from party p into this contract (the ledger's
// FreezeCoins oracle). Insufficient funds fail immediately — the "nofund"
// branch of the ideal functionality — reverting the call if propagated.
// The balance read enters the read set; the freeze itself writes both the
// party's balance and this contract's escrow.
func (e *Env) Freeze(p ledger.AccountID, amount ledger.Amount) error {
	e.recordRead(rwKey{kind: rwBalance, owner: string(p)})
	balance := e.chain.ledger.Balance(p)
	available := balance - e.pendingFrozen[p]
	if balance < e.pendingFrozen[p] || available < amount {
		return fmt.Errorf("chain: nofund freezing %d from %s", amount, p)
	}
	e.pendingFrozen[p] += amount
	e.pendingEscrow += int64(amount)
	e.freezes = append(e.freezes, ledgerOp{party: p, amount: amount})
	return nil
}

// Pay releases amount escrowed coins to party p (the ledger's PayCoins
// oracle), validated against the contract's escrow including intra-call
// freezes and payments. The escrow read enters the read set; the payment
// writes the escrow and the party's balance.
func (e *Env) Pay(p ledger.AccountID, amount ledger.Amount) error {
	e.recordRead(rwKey{kind: rwEscrow, owner: string(e.contractID)})
	escrow := int64(e.chain.ledger.Escrow(e.contractID)) + e.pendingEscrow
	if escrow < int64(amount) {
		return fmt.Errorf("chain: escrow %d cannot pay %d to %s", escrow, amount, p)
	}
	e.pendingEscrow -= int64(amount)
	e.pays = append(e.pays, ledgerOp{party: p, amount: amount})
	return nil
}

// hasWrites reports whether the call's journal contains any state write.
func (e *Env) hasWrites() bool {
	return len(e.storeWrites) > 0 || len(e.freezes) > 0 || len(e.pays) > 0
}

// writeKeys adds every state key the call's journal writes into the given
// set: storage slots, frozen parties' balances, paid parties' balances, and
// this contract's escrow for any ledger movement.
func (e *Env) writeKeys(into map[rwKey]struct{}) {
	for k := range e.storeWrites {
		into[rwKey{kind: rwStorage, owner: string(e.contractID), slot: k}] = struct{}{}
	}
	if len(e.freezes) > 0 || len(e.pays) > 0 {
		into[rwKey{kind: rwEscrow, owner: string(e.contractID)}] = struct{}{}
	}
	for _, op := range e.freezes {
		into[rwKey{kind: rwBalance, owner: string(op.party)}] = struct{}{}
	}
	for _, op := range e.pays {
		into[rwKey{kind: rwBalance, owner: string(op.party)}] = struct{}{}
	}
}

// conflictsWith reports whether any key in the call's read set is in the
// given write-key set — the optimistic validation predicate: a speculative
// execution is reusable exactly when none of the state it observed was
// written by a lower-indexed transaction.
func (e *Env) conflictsWith(written map[rwKey]struct{}) bool {
	if len(written) == 0 {
		return false
	}
	for k := range e.reads {
		if _, dirty := written[k]; dirty {
			return true
		}
	}
	return false
}

// commit applies the journal. The ledger operations were validated when
// queued, so failures here indicate a chain bug and are surfaced as errors.
func (e *Env) commit() error {
	for _, op := range e.freezes {
		if err := e.chain.ledger.FreezeCoins(e.contractID, op.party, op.amount); err != nil {
			return fmt.Errorf("chain: journaled freeze failed: %w", err)
		}
	}
	for _, op := range e.pays {
		if err := e.chain.ledger.PayCoins(e.contractID, op.party, op.amount); err != nil {
			return fmt.Errorf("chain: journaled pay failed: %w", err)
		}
	}
	for k, v := range e.storeWrites {
		e.chain.storage[e.contractID][k] = v
	}
	return nil
}

// MeteredGroup wraps a group backend so that every algebraic operation a
// contract performs is charged at the corresponding EVM precompile price
// (EIP-1108: ECADD 150 gas, ECMUL 6000 gas). Handing a MeteredGroup-backed
// public key to the vpke/poqoea verifiers yields exactly the gas a Solidity
// verifier paying for precompile calls would incur — the paper's on-chain
// optimization (i).
type MeteredGroup struct {
	inner group.Group
	env   *Env
}

// NewMeteredGroup wraps g with per-operation gas charging against env.
func NewMeteredGroup(env *Env, g group.Group) *MeteredGroup {
	return &MeteredGroup{inner: g, env: env}
}

var _ group.Group = (*MeteredGroup)(nil)

// Name implements group.Group.
func (m *MeteredGroup) Name() string { return m.inner.Name() + "+metered" }

// Order implements group.Group.
func (m *MeteredGroup) Order() *big.Int { return m.inner.Order() }

// Generator implements group.Group.
func (m *MeteredGroup) Generator() group.Element { return m.inner.Generator() }

// Identity implements group.Group.
func (m *MeteredGroup) Identity() group.Element { return m.inner.Identity() }

// Add implements group.Group, charging the ECADD precompile price.
func (m *MeteredGroup) Add(a, b group.Element) group.Element {
	m.env.UseGas(gas.EcAdd)
	return m.inner.Add(a, b)
}

// Neg implements group.Group (negation is an ECADD-class operation).
func (m *MeteredGroup) Neg(a group.Element) group.Element {
	m.env.UseGas(gas.EcAdd)
	return m.inner.Neg(a)
}

// ScalarMul implements group.Group, charging the ECMUL precompile price.
func (m *MeteredGroup) ScalarMul(a group.Element, k *big.Int) group.Element {
	m.env.UseGas(gas.EcMul)
	return m.inner.ScalarMul(a, k)
}

// ScalarBaseMul implements group.Group, charging the ECMUL precompile price.
func (m *MeteredGroup) ScalarBaseMul(k *big.Int) group.Element {
	m.env.UseGas(gas.EcMul)
	return m.inner.ScalarBaseMul(k)
}

// Equal implements group.Group (comparison is free, as on the EVM).
func (m *MeteredGroup) Equal(a, b group.Element) bool { return m.inner.Equal(a, b) }

// IsIdentity implements group.Group.
func (m *MeteredGroup) IsIdentity(a group.Element) bool { return m.inner.IsIdentity(a) }

// Marshal implements group.Group.
func (m *MeteredGroup) Marshal(a group.Element) []byte { return m.inner.Marshal(a) }

// Unmarshal implements group.Group.
func (m *MeteredGroup) Unmarshal(data []byte) (group.Element, error) {
	return m.inner.Unmarshal(data)
}

// ElementLen implements group.Group.
func (m *MeteredGroup) ElementLen() int { return m.inner.ElementLen() }
