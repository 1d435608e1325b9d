package ledger

// Ledger snapshot/restore and event-trace retention — the coin
// functionality's half of a long-lived service's bounded, resumable state.
// The snapshot covers the monetary state (balances, escrows, total supply);
// the broadcast event trace is NOT part of it: it is an append-only
// diagnostic log, unbounded by construction, and a resumed service starts a
// fresh trace (conservation checking needs only the monetary state).

import (
	"fmt"
	"sort"

	"dragoon/internal/wire"
)

// snapshotVersion guards the ledger snapshot encoding.
const snapshotVersion = 1

// Snapshot encodes the monetary state: every balance, every escrow, and the
// total supply, in deterministic (sorted) order.
func (l *Ledger) Snapshot() []byte {
	l.mu.RLock()
	defer l.mu.RUnlock()
	w := wire.NewWriter()
	w.WriteUint(snapshotVersion)
	accounts := make([]AccountID, 0, len(l.balances))
	for a := range l.balances {
		accounts = append(accounts, a)
	}
	sort.Slice(accounts, func(i, j int) bool { return accounts[i] < accounts[j] })
	w.WriteUint(uint64(len(accounts)))
	for _, a := range accounts {
		w.WriteString(string(a))
		w.WriteUint(uint64(l.balances[a]))
	}
	contracts := make([]ContractID, 0, len(l.escrow))
	for f := range l.escrow {
		contracts = append(contracts, f)
	}
	sort.Slice(contracts, func(i, j int) bool { return contracts[i] < contracts[j] })
	w.WriteUint(uint64(len(contracts)))
	for _, f := range contracts {
		w.WriteString(string(f))
		w.WriteUint(uint64(l.escrow[f]))
	}
	w.WriteUint(uint64(l.total))
	return w.Bytes()
}

// Restore decodes a Snapshot into a fresh ledger.
func Restore(data []byte) (*Ledger, error) {
	r := wire.NewReader(data)
	v, err := r.ReadUint()
	if err != nil {
		return nil, fmt.Errorf("ledger: restore: %w", err)
	}
	if v != snapshotVersion {
		return nil, fmt.Errorf("ledger: restore: snapshot version %d, want %d", v, snapshotVersion)
	}
	l := New()
	n, err := r.ReadCount()
	if err != nil {
		return nil, fmt.Errorf("ledger: restore: balances: %w", err)
	}
	for i := 0; i < n; i++ {
		a, err := r.ReadString()
		if err != nil {
			return nil, fmt.Errorf("ledger: restore: account: %w", err)
		}
		b, err := r.ReadUint()
		if err != nil {
			return nil, fmt.Errorf("ledger: restore: balance of %q: %w", a, err)
		}
		l.balances[AccountID(a)] = Amount(b)
	}
	if n, err = r.ReadCount(); err != nil {
		return nil, fmt.Errorf("ledger: restore: escrows: %w", err)
	}
	for i := 0; i < n; i++ {
		f, err := r.ReadString()
		if err != nil {
			return nil, fmt.Errorf("ledger: restore: contract: %w", err)
		}
		e, err := r.ReadUint()
		if err != nil {
			return nil, fmt.Errorf("ledger: restore: escrow of %q: %w", f, err)
		}
		l.escrow[ContractID(f)] = Amount(e)
	}
	total, err := r.ReadUint()
	if err != nil {
		return nil, fmt.Errorf("ledger: restore: total: %w", err)
	}
	l.total = Amount(total)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("ledger: restore: %w", err)
	}
	if err := l.CheckConservation(); err != nil {
		return nil, fmt.Errorf("ledger: restore: %w", err)
	}
	return l, nil
}

// TrimEvents bounds the broadcast event trace to its newest max entries —
// the retention hook of a long-lived service (the trace otherwise grows with
// every freeze/pay forever). The cut is made in place: the dropped prefix is
// cleared and the trace resliced. Trimming never touches the monetary state.
func (l *Ledger) TrimEvents(max int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if max < 0 {
		max = 0
	}
	if len(l.events) <= max {
		return
	}
	cut := len(l.events) - max
	clear(l.events[:cut])
	l.events = l.events[cut:]
}
