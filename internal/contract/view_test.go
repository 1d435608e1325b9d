package contract_test

import (
	"reflect"
	"testing"

	"dragoon/internal/chain"
	"dragoon/internal/contract"
	"dragoon/internal/ledger"
)

// scripted is a stand-in contract that emits one event per transaction: the
// method names the event and the calldata is its data, so a test can mine
// any log it likes, including ones the HIT contract never emits.
type scripted struct{}

func (scripted) Execute(env *chain.Env, _ chain.Address, method string, data []byte) error {
	env.Emit(method, 1, data)
	return nil
}

// logEvent is one scripted event, mined in the given round.
type logEvent struct {
	round int
	name  string
	data  string
}

// newLogChain deploys a scripted contract "v" on a fresh chain.
func newLogChain(t *testing.T) *chain.Chain {
	t.Helper()
	ch := chain.New(ledger.New(), nil)
	if _, err := ch.Deploy("v", scripted{}, 0, "deployer"); err != nil {
		t.Fatal(err)
	}
	return ch
}

// mineEvent mines ev in a round of its own, no earlier than ev.round.
func mineEvent(t *testing.T, ch *chain.Chain, ev logEvent) {
	t.Helper()
	for ch.Round() < ev.round {
		if _, err := ch.MineRound(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ch.Submit(&chain.Tx{From: "x", Contract: "v", Method: ev.name, Data: []byte(ev.data)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.MineRound(); err != nil {
		t.Fatal(err)
	}
}

// set builds an address set, empty but non-nil when given no addresses.
func set(addrs ...chain.Address) map[chain.Address]bool {
	m := make(map[chain.Address]bool, len(addrs))
	for _, a := range addrs {
		m[a] = true
	}
	return m
}

// TestViewFoldsLog folds scripted logs through an Observer, once with one
// Refresh per mined event and once with the whole log in one batch: both
// must equal the expected view, and Phase must follow the log.
func TestViewFoldsLog(t *testing.T) {
	pub := &contract.PublishMsg{N: 3, Budget: 90, Workers: 2, RangeSize: 4, Threshold: 1, PubKey: []byte("h"), CommitRounds: 8}
	pubData := string(pub.Marshal())
	cases := []struct {
		name   string
		log    []logEvent
		want   contract.View
		phases map[int]contract.Phase // round → phase
	}{
		{
			name: "every event kind",
			log: []logEvent{
				{0, contract.EventPublished, pubData},
				{2, contract.EventCommitted, ""},
				{3, contract.EventRevealed, "w1\x00sub1"},
				{4, contract.EventRevealed, "w2\x00sub2"},
				{5, contract.EventGoldenRevealed, "gold"},
				{6, contract.EventPaid, "w1"},
				{7, contract.EventRejected, "w2\x00quality below threshold"},
				{11, contract.EventFinalized, ""},
				{12, "unknown", "ignored"},
			},
			want: contract.View{
				Published: pub, PublishedRound: 0, CommittedRound: 2,
				Submissions: []contract.Submission{
					{Worker: "w1", Data: []byte("sub1")},
					{Worker: "w2", Data: []byte("sub2")},
				},
				Revealed: set("w1", "w2"), Paid: set("w1"), Rejected: set("w2"),
				GoldenRevealed: true, Finalized: true,
			},
			phases: map[int]contract.Phase{0: contract.PhaseDone, 20: contract.PhaseDone},
		},
		{
			name: "worker prefix without separator or with a leading 0",
			log: []logEvent{
				{0, contract.EventPublished, pubData},
				{1, contract.EventCommitted, ""},
				{2, contract.EventRevealed, "w1"},
				{3, contract.EventRevealed, "\x00sub"},
				{4, contract.EventRevealed, "w3\x00"},
				{5, contract.EventRejected, "w1"},
				{6, contract.EventRejected, "\x00outrange"},
			},
			want: contract.View{
				Published: pub, CommittedRound: 1,
				Submissions: []contract.Submission{{Worker: "w3", Data: []byte{}}},
				Revealed:    set("w3"), Paid: set(), Rejected: set(),
			},
			phases: map[int]contract.Phase{
				1 + contract.RevealRounds:     contract.PhaseReveal,
				1 + contract.RevealRounds + 1: contract.PhaseEvaluate,
			},
		},
		{
			name: "undecodable publish",
			log: []logEvent{
				{3, contract.EventPublished, "junk"},
			},
			want: contract.View{
				CommittedRound: -1,
				Revealed:       set(), Paid: set(), Rejected: set(),
			},
			phases: map[int]contract.Phase{3: 0, 30: 0},
		},
		{
			name: "commit phase open",
			log: []logEvent{
				{4, contract.EventPublished, pubData},
			},
			want: contract.View{
				Published: pub, PublishedRound: 4, CommittedRound: -1,
				Revealed: set(), Paid: set(), Rejected: set(),
			},
			phases: map[int]contract.Phase{4: contract.PhaseCommit, 40: contract.PhaseCommit},
		},
		{
			name: "commit-close boundary",
			log: []logEvent{
				{0, contract.EventPublished, pubData},
				{3, contract.EventCommitted, ""},
			},
			want: contract.View{
				Published: pub, CommittedRound: 3,
				Revealed: set(), Paid: set(), Rejected: set(),
			},
			phases: map[int]contract.Phase{
				3:                             contract.PhaseReveal,
				3 + contract.RevealRounds:     contract.PhaseReveal,
				3 + contract.RevealRounds + 1: contract.PhaseEvaluate,
			},
		},
		{
			name: "cancelled",
			log: []logEvent{
				{0, contract.EventPublished, pubData},
				{9, contract.EventCancelled, ""},
			},
			want: contract.View{
				Published: pub, CommittedRound: -1,
				Revealed: set(), Paid: set(), Rejected: set(),
				Cancelled: true,
			},
			phases: map[int]contract.Phase{9: contract.PhaseCancelled, 90: contract.PhaseCancelled},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch := newLogChain(t)
			stepwise := contract.NewObserver(ch, "v")
			for _, ev := range tc.log {
				mineEvent(t, ch, ev)
				if _, err := stepwise.Refresh(); err != nil {
					t.Fatal(err)
				}
			}
			stepView, err := stepwise.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			batchView, err := contract.NewObserver(ch, "v").Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*batchView, tc.want) {
				t.Errorf("whole-log view = %+v\nwant %+v", *batchView, tc.want)
			}
			if !reflect.DeepEqual(stepView, batchView) {
				t.Errorf("one event per Refresh = %+v\nwhole log = %+v", *stepView, *batchView)
			}
			for round, want := range tc.phases {
				if got := batchView.Phase(round); got != want {
					t.Errorf("Phase(%d) = %v, want %v", round, got, want)
				}
			}
		})
	}
}
