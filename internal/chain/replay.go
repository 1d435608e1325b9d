package chain

// ReplayBackend serves a round-capped historical view of a chain — the
// restore mechanism for off-chain client state. Protocol clients are
// deterministic functions of (their randomness stream, the chain state they
// observed each round), so a restoring service rebuilds each client from its
// seed and re-steps it round by round against a ReplayBackend whose cap
// advances through the rounds the client already lived: the client re-draws
// the same randomness, rebuilds the same commitments and cursors, and its
// submissions — already mined in the restored chain — are discarded. After
// the last replayed round the backend is flipped live and every call
// forwards to the chain, with event cursors continuing seamlessly past the
// cap (positions carry over; nothing is delivered twice).
//
// Replay requires the chain's retained history to reach back to the capped
// rounds: the per-contract event logs of live contracts (never trimmed) and
// receipts back to the oldest replayed admission round (the service's
// retention floor guarantees it).

import "dragoon/internal/ledger"

// ReplayBackend implements Backend over a historical prefix of a chain.
type ReplayBackend struct {
	ch   *Chain
	cap  int // while replaying, only state with Round < cap is visible
	live bool
}

// NewReplayBackend returns a backend over ch capped at startRound: clients
// see the chain as it was when Round() == startRound.
func NewReplayBackend(ch *Chain, startRound int) *ReplayBackend {
	return &ReplayBackend{ch: ch, cap: startRound}
}

// SetRound advances (or rewinds) the replay cap.
func (b *ReplayBackend) SetRound(round int) { b.cap = round }

// GoLive flips the backend to forward every call to the underlying chain.
func (b *ReplayBackend) GoLive() { b.live = true }

// Round returns the capped round while replaying, the live round after.
func (b *ReplayBackend) Round() int {
	if b.live {
		return b.ch.Round()
	}
	return b.cap
}

// Submit forwards to the chain once live; replayed submissions are already
// part of the restored chain, so they are discarded.
func (b *ReplayBackend) Submit(tx *Tx) error {
	if b.live {
		return b.ch.Submit(tx)
	}
	return nil
}

// Deploy forwards once live; a replayed deployment already happened (its
// receipt and gas are in the restored chain), so it returns an empty receipt
// without charging anything.
func (b *ReplayBackend) Deploy(id ledger.ContractID, contract Contract, codeSize int, from Address) (*Receipt, error) {
	if b.live {
		return b.ch.Deploy(id, contract, codeSize, from)
	}
	return &Receipt{Tx: &Tx{From: from, Contract: id, Method: "deploy"}, Round: b.cap}, nil
}

// Receipts returns the chain's retained receipts, truncated to the capped
// round while replaying.
func (b *ReplayBackend) Receipts() []*Receipt {
	if b.live {
		return b.ch.Receipts()
	}
	b.ch.mu.Lock()
	defer b.ch.mu.Unlock()
	n := 0
	for n < len(b.ch.receipts) && b.ch.receipts[n].Round < b.cap {
		n++
	}
	out := make([]*Receipt, n)
	copy(out, b.ch.receipts[:n])
	return out
}

// Cursor returns a cursor whose visibility follows the backend's cap: it
// delivers only events of rounds below the cap until GoLive, then drains
// normally from wherever it stands.
func (b *ReplayBackend) Cursor(id ledger.ContractID) *Cursor {
	return &Cursor{chain: b.ch, id: id, replay: b}
}

var _ Backend = (*ReplayBackend)(nil)
