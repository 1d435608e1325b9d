package chain_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"dragoon/internal/chain"
	"dragoon/internal/ledger"
	"dragoon/internal/wire"
)

// TestChainSnapshotRoundTrip: snapshot a chain mid-life, restore it over a
// restored ledger, and require the clock, receipts, events, per-contract
// logs, gas index and future mining behaviour to carry over exactly.
func TestChainSnapshotRoundTrip(t *testing.T) {
	l := ledger.New()
	l.Mint("alice", 1000)
	c := chain.New(l, nil)
	if _, err := c.Deploy("a", counterContract{}, 100, "alice"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
		mine(t, c)
	}
	cur := c.Cursor("a")
	if evs := poll(t, cur); len(evs) != 3 {
		t.Fatalf("pre-snapshot events = %d, want 3", len(evs))
	}

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := ledger.Restore(l.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := chain.RestoreChain(l2, nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Round() != c.Round() {
		t.Fatalf("restored round = %d, want %d", c2.Round(), c.Round())
	}
	if !reflect.DeepEqual(c2.Events(), c.Events()) {
		t.Fatal("restored global events diverge")
	}
	if !reflect.DeepEqual(c2.EventsFor("a"), c.EventsFor("a")) {
		t.Fatal("restored per-contract events diverge")
	}
	if !reflect.DeepEqual(c2.GasByMethodFor("a"), c.GasByMethodFor("a")) {
		t.Fatal("restored gas index diverges")
	}
	ra, rb := c.Receipts(), c2.Receipts()
	if len(ra) != len(rb) {
		t.Fatalf("restored %d receipts, want %d", len(rb), len(ra))
	}
	for i := range ra {
		if ra[i].Round != rb[i].Round || ra[i].GasUsed != rb[i].GasUsed ||
			ra[i].Tx.Method != rb[i].Tx.Method || ra[i].Tx.From != rb[i].Tx.From {
			t.Fatalf("receipt %d diverges: %+v vs %+v", i, ra[i], rb[i])
		}
	}

	// Programs are code, not data: mining against the restored contract
	// requires re-registration, after which execution continues where the
	// original chain stood.
	if err := c2.RegisterContract("a", counterContract{}); err != nil {
		t.Fatal(err)
	}
	c2.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
	mine(t, c2)
	evs := c2.EventsFor("a")
	if got := evs[len(evs)-1].Data[0]; got != 4 {
		t.Fatalf("restored counter continued at %d, want 4", got)
	}
}

// TestSnapshotRejectsMidRound: fresh (undelayed) mempool transactions would
// be silently lost by a snapshot — their owners believe them sent — so the
// snapshot must refuse.
func TestSnapshotRejectsMidRound(t *testing.T) {
	c := newTwoContractChain(t)
	c.Submit(&chain.Tx{From: "alice", Contract: "a", Method: "inc"})
	if _, err := c.Snapshot(); err == nil {
		t.Fatal("snapshot with an unmined fresh transaction succeeded")
	}
	mine(t, c)
	if _, err := c.Snapshot(); err != nil {
		t.Fatalf("snapshot at round boundary: %v", err)
	}
}

// snapshotCounts walks a chain snapshot's layout and returns the offset of
// every element count in it.
func snapshotCounts(t *testing.T, snap []byte) []int {
	t.Helper()
	r := wire.NewReader(snap)
	var offs []int
	var err error
	count := func() int {
		offs = append(offs, len(snap)-r.Remaining())
		n, e := r.ReadUint()
		if err == nil {
			err = e
		}
		return int(n)
	}
	// skip reads one field per letter: u a uint, b a byte string, o a bool.
	skip := func(fields string) {
		for _, f := range fields {
			var e error
			switch f {
			case 'u':
				_, e = r.ReadUint()
			case 'b':
				_, e = r.ReadBytes()
			case 'o':
				_, e = r.ReadBool()
			}
			if err == nil {
				err = e
			}
		}
	}
	const event, tx = "bbbu", "bbbbuo"
	// Snapshot version, round and state version; then storage, the
	// per-contract logs, the receipts, the mempool and the gas index.
	skip("uuu")
	for i, n := 0, count(); i < n && err == nil; i++ {
		skip("b")
		for j, m := 0, count(); j < m && err == nil; j++ {
			skip("bb")
		}
	}
	for i, n := 0, count(); i < n && err == nil; i++ {
		skip("b")
		for j, m := 0, count(); j < m && err == nil; j++ {
			skip(event)
		}
	}
	for i, n := 0, count(); i < n && err == nil; i++ {
		skip(tx + "uub")
		for j, m := 0, count(); j < m && err == nil; j++ {
			skip(event)
		}
	}
	for i, n := 0, count(); i < n && err == nil; i++ {
		skip(tx)
	}
	for i, n := 0, count(); i < n && err == nil; i++ {
		skip("b")
		for j, m := 0, count(); j < m && err == nil; j++ {
			skip("bu")
		}
	}
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		t.Fatalf("walking the snapshot layout: %v", err)
	}
	return offs
}

// setCount returns a copy of snap with the uvarint at off replaced by v.
func setCount(snap []byte, off int, v uint64) []byte {
	_, n := binary.Uvarint(snap[off:])
	out := binary.AppendUvarint(append([]byte{}, snap[:off]...), v)
	return append(out, snap[off+n:]...)
}

// TestRestoreChainRejectsInflatedCounts: every element count of a real
// snapshot, set to 2⁶² or to one more than the bytes that follow it, fails
// with wire.ErrTruncated instead of sizing an allocation or a loop.
func TestRestoreChainRejectsInflatedCounts(t *testing.T) {
	snap, err := busyChain(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain.RestoreChain(ledger.New(), nil, snap); err != nil {
		t.Fatalf("valid snapshot: %v", err)
	}
	offs := snapshotCounts(t, snap)
	if len(offs) < 12 {
		t.Fatalf("walked %d counts, want every section's", len(offs))
	}
	for _, off := range offs {
		_, n := binary.Uvarint(snap[off:])
		for _, v := range []uint64{1 << 62, uint64(len(snap)-off-n) + 1} {
			if _, err := chain.RestoreChain(ledger.New(), nil, setCount(snap, off, v)); !errors.Is(err, wire.ErrTruncated) {
				t.Errorf("count at byte %d set to %d: err = %v, want wire.ErrTruncated", off, v, err)
			}
		}
	}
}

// FuzzRestoreChain: whatever the bytes, RestoreChain returns a chain or an
// error and never panics, and a chain it restores has a snapshot that
// restores to a chain with the same snapshot.
func FuzzRestoreChain(f *testing.F) {
	snap, err := busyChain(f).Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := chain.RestoreChain(ledger.New(), nil, data)
		if err != nil {
			return
		}
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatalf("restored chain does not snapshot: %v", err)
		}
		c2, err := chain.RestoreChain(ledger.New(), nil, snap)
		if err != nil {
			t.Fatalf("a restored chain's snapshot does not restore: %v", err)
		}
		if snap2, err := c2.Snapshot(); err != nil || !bytes.Equal(snap2, snap) {
			t.Fatalf("the snapshot changed across a restore (err %v)", err)
		}
	})
}
