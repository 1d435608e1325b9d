package chain

// Chain snapshot/restore: a deterministic wire encoding of the chain's
// dynamic state — clock, contract storage, per-contract event logs, the
// retained receipts with their events, the delayed mempool and the
// per-contract gas index — so a long-lived service can persist its world
// between rounds and resume it byte-identically (internal/service).
// Programs (Contract implementations) and the Scheduler are code, not data:
// a restorer re-registers each live contract via RegisterContract and
// supplies the scheduler anew. Executor telemetry (ExecStats) restarts from
// zero.

import (
	"errors"
	"fmt"
	"sort"

	"dragoon/internal/ledger"
	"dragoon/internal/wire"
)

// snapshotVersion guards the chain snapshot encoding; bump on any layout
// change so stale snapshots fail loudly instead of decoding garbage.
const snapshotVersion = 2

// Snapshot encodes the chain's dynamic state. It must be taken at a round
// boundary: the mempool may hold only transactions already delayed into the
// next round (fresh submissions of an unmined round would be lost, because
// their owners' clients believe them sent).
func (c *Chain) Snapshot() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := wire.NewWriter()
	w.WriteUint(snapshotVersion)
	w.WriteUint(uint64(c.round))
	w.WriteUint(c.version)

	for _, tx := range c.mempool {
		if !tx.delayed {
			return nil, fmt.Errorf("chain: snapshot mid-round: fresh transaction %s/%s from %s still unmined",
				tx.Contract, tx.Method, tx.From)
		}
	}

	// Contract storage, sorted by contract then key.
	ids := make([]ledger.ContractID, 0, len(c.storage))
	for id := range c.storage {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.WriteUint(uint64(len(ids)))
	for _, id := range ids {
		w.WriteString(string(id))
		slots := c.storage[id]
		keys := make([]string, 0, len(slots))
		for k := range slots {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.WriteUint(uint64(len(keys)))
		for _, k := range keys {
			w.WriteString(k)
			w.WriteBytes(slots[k])
		}
	}

	// Per-contract event logs, sorted by contract.
	ids = ids[:0]
	for id := range c.eventsFor {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.WriteUint(uint64(len(ids)))
	for _, id := range ids {
		w.WriteString(string(id))
		evs := c.eventsFor[id]
		w.WriteUint(uint64(len(evs)))
		for _, ev := range evs {
			writeEvent(w, ev)
		}
	}

	// Retained receipts with their events, in log order.
	w.WriteUint(uint64(len(c.receipts)))
	for _, rcpt := range c.receipts {
		writeTx(w, rcpt.Tx)
		w.WriteUint(uint64(rcpt.Round))
		w.WriteUint(rcpt.GasUsed)
		if rcpt.Err != nil {
			w.WriteString(rcpt.Err.Error())
		} else {
			w.WriteString("")
		}
		w.WriteUint(uint64(len(rcpt.Events)))
		for _, ev := range rcpt.Events {
			writeEvent(w, ev)
		}
	}

	// The delayed mempool.
	w.WriteUint(uint64(len(c.mempool)))
	for _, tx := range c.mempool {
		writeTx(w, tx)
	}

	// The per-contract gas index, sorted.
	ids = ids[:0]
	for id := range c.gasByContract {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.WriteUint(uint64(len(ids)))
	for _, id := range ids {
		w.WriteString(string(id))
		methods := c.gasByContract[id]
		names := make([]string, 0, len(methods))
		for m := range methods {
			names = append(names, m)
		}
		sort.Strings(names)
		w.WriteUint(uint64(len(names)))
		for _, m := range names {
			w.WriteString(m)
			w.WriteUint(methods[m])
		}
	}
	return w.Bytes(), nil
}

// RestoreChain decodes a Snapshot over a (restored) ledger and a scheduler,
// returning a chain that resumes exactly where the snapshot was taken.
// Contract programs must be re-registered (RegisterContract) before the
// first restored round is mined.
func RestoreChain(l *ledger.Ledger, s Scheduler, data []byte) (*Chain, error) {
	r := wire.NewReader(data)
	v, err := r.ReadUint()
	if err != nil {
		return nil, fmt.Errorf("chain: restore: %w", err)
	}
	if v != snapshotVersion {
		return nil, fmt.Errorf("chain: restore: snapshot version %d, want %d", v, snapshotVersion)
	}
	c := New(l, s)
	round, err := r.ReadUint()
	if err != nil {
		return nil, fmt.Errorf("chain: restore: round: %w", err)
	}
	c.round = int(round)
	if c.version, err = r.ReadUint(); err != nil {
		return nil, fmt.Errorf("chain: restore: version: %w", err)
	}

	n, err := r.ReadCount()
	if err != nil {
		return nil, fmt.Errorf("chain: restore: storage: %w", err)
	}
	for i := 0; i < n; i++ {
		id, err := r.ReadString()
		if err != nil {
			return nil, fmt.Errorf("chain: restore: storage id: %w", err)
		}
		nk, err := r.ReadCount()
		if err != nil {
			return nil, fmt.Errorf("chain: restore: storage %q: %w", id, err)
		}
		slots := make(map[string][]byte, nk)
		for j := 0; j < nk; j++ {
			k, err := r.ReadString()
			if err != nil {
				return nil, fmt.Errorf("chain: restore: storage %q key: %w", id, err)
			}
			if slots[k], err = r.ReadBytes(); err != nil {
				return nil, fmt.Errorf("chain: restore: storage %q[%q]: %w", id, k, err)
			}
		}
		c.storage[ledger.ContractID(id)] = slots
	}

	if n, err = r.ReadCount(); err != nil {
		return nil, fmt.Errorf("chain: restore: event logs: %w", err)
	}
	for i := 0; i < n; i++ {
		id, err := r.ReadString()
		if err != nil {
			return nil, fmt.Errorf("chain: restore: event log id: %w", err)
		}
		ne, err := r.ReadCount()
		if err != nil {
			return nil, fmt.Errorf("chain: restore: event log %q: %w", id, err)
		}
		evs := make([]Event, ne)
		for j := range evs {
			if evs[j], err = readEvent(r); err != nil {
				return nil, fmt.Errorf("chain: restore: event log %q: %w", id, err)
			}
		}
		c.eventsFor[ledger.ContractID(id)] = evs
	}

	if n, err = r.ReadCount(); err != nil {
		return nil, fmt.Errorf("chain: restore: receipts: %w", err)
	}
	c.receipts = make([]*Receipt, n)
	for i := range c.receipts {
		tx, err := readTx(r)
		if err != nil {
			return nil, fmt.Errorf("chain: restore: receipt tx: %w", err)
		}
		rcpt := &Receipt{Tx: tx}
		rd, err := r.ReadUint()
		if err != nil {
			return nil, fmt.Errorf("chain: restore: receipt round: %w", err)
		}
		rcpt.Round = int(rd)
		if rcpt.GasUsed, err = r.ReadUint(); err != nil {
			return nil, fmt.Errorf("chain: restore: receipt gas: %w", err)
		}
		errStr, err := r.ReadString()
		if err != nil {
			return nil, fmt.Errorf("chain: restore: receipt err: %w", err)
		}
		if errStr != "" {
			rcpt.Err = errors.New(errStr)
		}
		ne, err := r.ReadCount()
		if err != nil {
			return nil, fmt.Errorf("chain: restore: receipt events: %w", err)
		}
		rcpt.Events = make([]Event, ne)
		for j := range rcpt.Events {
			if rcpt.Events[j], err = readEvent(r); err != nil {
				return nil, fmt.Errorf("chain: restore: receipt events: %w", err)
			}
		}
		c.receipts[i] = rcpt
	}

	if n, err = r.ReadCount(); err != nil {
		return nil, fmt.Errorf("chain: restore: mempool: %w", err)
	}
	c.mempool = make([]*Tx, n)
	for i := range c.mempool {
		if c.mempool[i], err = readTx(r); err != nil {
			return nil, fmt.Errorf("chain: restore: mempool: %w", err)
		}
		// Snapshot refuses a fresh transaction, so none can be restored.
		if !c.mempool[i].delayed {
			return nil, errors.New("chain: restore: mempool holds a fresh transaction")
		}
	}

	if n, err = r.ReadCount(); err != nil {
		return nil, fmt.Errorf("chain: restore: gas by contract: %w", err)
	}
	for i := 0; i < n; i++ {
		id, err := r.ReadString()
		if err != nil {
			return nil, fmt.Errorf("chain: restore: gas contract: %w", err)
		}
		nm, err := r.ReadCount()
		if err != nil {
			return nil, fmt.Errorf("chain: restore: gas of %q: %w", id, err)
		}
		methods := make(map[string]uint64, nm)
		for j := 0; j < nm; j++ {
			m, err := r.ReadString()
			if err != nil {
				return nil, fmt.Errorf("chain: restore: gas method of %q: %w", id, err)
			}
			if methods[m], err = r.ReadUint(); err != nil {
				return nil, fmt.Errorf("chain: restore: gas of %q/%q: %w", id, m, err)
			}
		}
		c.gasByContract[ledger.ContractID(id)] = methods
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("chain: restore: %w", err)
	}
	return c, nil
}

func writeEvent(w *wire.Writer, ev Event) {
	w.WriteString(string(ev.Contract))
	w.WriteString(ev.Name)
	w.WriteBytes(ev.Data)
	w.WriteUint(uint64(ev.Round))
}

func readEvent(r *wire.Reader) (Event, error) {
	var ev Event
	id, err := r.ReadString()
	if err != nil {
		return ev, err
	}
	ev.Contract = ledger.ContractID(id)
	if ev.Name, err = r.ReadString(); err != nil {
		return ev, err
	}
	if ev.Data, err = r.ReadBytes(); err != nil {
		return ev, err
	}
	round, err := r.ReadUint()
	if err != nil {
		return ev, err
	}
	ev.Round = int(round)
	return ev, nil
}

func writeTx(w *wire.Writer, tx *Tx) {
	w.WriteString(string(tx.From))
	w.WriteString(string(tx.Contract))
	w.WriteString(tx.Method)
	w.WriteBytes(tx.Data)
	w.WriteUint(uint64(tx.arrivalRound))
	w.WriteBool(tx.delayed)
}

func readTx(r *wire.Reader) (*Tx, error) {
	tx := &Tx{submitted: true}
	from, err := r.ReadString()
	if err != nil {
		return nil, err
	}
	tx.From = Address(from)
	id, err := r.ReadString()
	if err != nil {
		return nil, err
	}
	tx.Contract = ledger.ContractID(id)
	if tx.Method, err = r.ReadString(); err != nil {
		return nil, err
	}
	if tx.Data, err = r.ReadBytes(); err != nil {
		return nil, err
	}
	arrival, err := r.ReadUint()
	if err != nil {
		return nil, err
	}
	tx.arrivalRound = int(arrival)
	if tx.delayed, err = r.ReadBool(); err != nil {
		return nil, err
	}
	return tx, nil
}
