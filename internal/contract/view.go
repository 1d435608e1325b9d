package contract

// The contract's event log is the only channel through which C_hit (Fig. 4)
// tells the parties of Π_hit (Fig. 5) what happened: storage is
// contract-internal, and the workers' ciphertexts live only in the log
// (§VI, on-chain optimization (ii)). This file is the one place that knows
// the log's format — its event names and the worker‖0‖payload layout of
// revealed and rejected events — and the one reader that folds it.

import (
	"bytes"

	"dragoon/internal/chain"
	"dragoon/internal/ledger"
)

// Event names the HIT contract emits.
const (
	// EventPublished carries the publish calldata (a PublishMsg).
	EventPublished = "published"
	// EventCommitted marks the K-th commitment: the commit phase closed.
	EventCommitted = "committed"
	// EventRevealed carries worker‖0‖RevealMsg (see EventWorker).
	EventRevealed = "revealed"
	// EventGoldenRevealed carries the opened golden standards.
	EventGoldenRevealed = "goldenrevealed"
	// EventPaid carries the paid worker's address.
	EventPaid = "paid"
	// EventRejected carries worker‖0‖reason (see EventWorker).
	EventRejected = "rejected"
	// EventFinalized marks settlement after the evaluation window.
	EventFinalized = "finalized"
	// EventCancelled marks the refund of a task whose commit phase never
	// filled.
	EventCancelled = "cancelled"
)

// EventWorker splits the data of a revealed or rejected event into the
// worker's address and the payload after the 0 separator. ok is false when
// the data has no separator or an empty address.
func EventWorker(data []byte) (worker chain.Address, rest []byte, ok bool) {
	i := bytes.IndexByte(data, 0)
	if i <= 0 {
		return "", nil, false
	}
	return chain.Address(data[:i]), data[i+1:], true
}

// Submission is a worker's revealed ciphertext vector as read from the log.
type Submission struct {
	Worker chain.Address
	Data   []byte // the raw RevealMsg encoding
}

// View is a reading of one contract's event log: exactly the information
// any Ethereum node could extract. Events are append-only, so a view fed
// each event exactly once — in any number of batches — equals a view built
// from the whole log.
type View struct {
	// Published holds the task parameters; nil until a decodable publish
	// event. PublishedRound is the round it landed in.
	Published      *PublishMsg
	PublishedRound int
	// CommittedRound is the round the commit phase closed in; -1 before.
	CommittedRound int
	// Submissions are the revealed ciphertext vectors, in reveal order.
	Submissions []Submission
	// GoldenRevealed reports that the golden opening landed.
	GoldenRevealed bool
	// Revealed, Paid and Rejected are the workers' verdicts so far.
	Revealed, Paid, Rejected map[chain.Address]bool
	// Finalized and Cancelled report how the task settled.
	Finalized, Cancelled bool
}

// newView returns the view of an empty log.
func newView() *View {
	return &View{
		CommittedRound: -1,
		Revealed:       make(map[chain.Address]bool),
		Paid:           make(map[chain.Address]bool),
		Rejected:       make(map[chain.Address]bool),
	}
}

// apply folds one event into the view. Events it cannot decode are ignored:
// the contract never emits them.
func (v *View) apply(ev chain.Event) {
	switch ev.Name {
	case EventPublished:
		if msg, err := UnmarshalPublish(ev.Data); err == nil {
			v.Published, v.PublishedRound = msg, ev.Round
		}
	case EventCommitted:
		v.CommittedRound = ev.Round
	case EventRevealed:
		if w, data, ok := EventWorker(ev.Data); ok {
			v.Submissions = append(v.Submissions, Submission{Worker: w, Data: data})
			v.Revealed[w] = true
		}
	case EventGoldenRevealed:
		v.GoldenRevealed = true
	case EventPaid:
		v.Paid[chain.Address(ev.Data)] = true
	case EventRejected:
		if w, _, ok := EventWorker(ev.Data); ok {
			v.Rejected[w] = true
		}
	case EventFinalized:
		v.Finalized = true
	case EventCancelled:
		v.Cancelled = true
	}
}

// Phase derives the contract phase as of the given round; 0 before the
// task was published.
func (v *View) Phase(round int) Phase {
	switch {
	case v.Cancelled:
		return PhaseCancelled
	case v.Finalized:
		return PhaseDone
	case v.Published == nil:
		return 0
	case v.CommittedRound < 0:
		return PhaseCommit
	case round <= v.CommittedRound+RevealRounds:
		return PhaseReveal
	default:
		return PhaseEvaluate
	}
}

// Observer keeps a View of one contract up to date through an event cursor:
// each Refresh folds only the events emitted since the previous one, so a
// client polling every round pays O(new events), never a rescan of the log
// or of other contracts' events. An Observer is not safe for concurrent
// use; clients that run concurrently each hold their own.
type Observer struct {
	cursor *chain.Cursor
	view   *View
}

// NewObserver returns an observer of one contract, positioned at the start
// of its log. A client built before it is wired to a chain may pass a nil
// backend; Refresh then panics.
func NewObserver(b chain.Backend, id ledger.ContractID) *Observer {
	o := &Observer{view: newView()}
	if b != nil {
		o.cursor = b.Cursor(id)
	}
	return o
}

// Refresh folds the events emitted since the previous Refresh into the view
// and returns it. It returns chain.ErrPruned (wrapped) if the contract's log
// was pruned beneath the cursor: the view can no longer be completed.
func (o *Observer) Refresh() (*View, error) {
	evs, err := o.cursor.Poll()
	if err != nil {
		return nil, err
	}
	for _, ev := range evs {
		o.view.apply(ev)
	}
	return o.view, nil
}
