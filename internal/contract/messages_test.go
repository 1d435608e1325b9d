package contract_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"dragoon/internal/chain"
	"dragoon/internal/commit"
	"dragoon/internal/contract"
	"dragoon/internal/ledger"
)

// Property: every message type roundtrips through its wire encoding, and
// the decoders reject truncation and trailing garbage. Deterministic
// encodings matter doubly here: commitments are computed over encoded
// payloads, and calldata gas is charged per byte.

func TestPublishMsgRoundtripQuick(t *testing.T) {
	f := func(n uint16, budget uint64, workers uint8, rng uint8, thr uint8, pk []byte, cg, qd [32]byte, cr uint8) bool {
		msg := &contract.PublishMsg{
			N:               int(n),
			Budget:          ledger.Amount(budget),
			Workers:         int(workers),
			RangeSize:       int64(rng),
			Threshold:       int(thr),
			PubKey:          pk,
			CommGolden:      commit.Commitment(cg),
			QuestionsDigest: qd,
			CommitRounds:    int(cr),
		}
		enc := msg.Marshal()
		dec, err := contract.UnmarshalPublish(enc)
		if err != nil {
			return false
		}
		return dec.N == msg.N && dec.Budget == msg.Budget && dec.Workers == msg.Workers &&
			dec.RangeSize == msg.RangeSize && dec.Threshold == msg.Threshold &&
			bytes.Equal(dec.PubKey, msg.PubKey) && dec.CommGolden == msg.CommGolden &&
			dec.QuestionsDigest == msg.QuestionsDigest && dec.CommitRounds == msg.CommitRounds
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRevealMsgRoundtripQuick(t *testing.T) {
	f := func(cts [][]byte, key [32]byte) bool {
		msg := &contract.RevealMsg{Cts: cts, Key: commit.Key(key)}
		enc := msg.Marshal()
		if cap(enc) != len(enc) {
			return false
		}
		dec, err := contract.UnmarshalReveal(enc)
		if err != nil {
			return false
		}
		if len(dec.Cts) != len(cts) || dec.Key != msg.Key {
			return false
		}
		for i := range cts {
			if !bytes.Equal(dec.Cts[i], cts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRevealMsgMarshalExactCap: a marshalled reveal, which a receipt keeps
// for the service's whole retention window, carries no growth slack. The
// sizes are the 8- and 106-question tasks' reveals of 128-byte
// ciphertexts, and counts and lengths around the uvarint boundaries.
func TestRevealMsgMarshalExactCap(t *testing.T) {
	for _, tc := range []struct{ n, size int }{{0, 0}, {1, 0}, {8, 128}, {106, 128}, {127, 127}, {128, 128}, {3, 16384}} {
		cts := make([][]byte, tc.n)
		for i := range cts {
			cts[i] = bytes.Repeat([]byte{byte(i)}, tc.size)
		}
		enc := (&contract.RevealMsg{Cts: cts, Key: commit.Key{1}}).Marshal()
		if cap(enc) != len(enc) {
			t.Errorf("%d ciphertexts of %d bytes: len %d, cap %d", tc.n, tc.size, len(enc), cap(enc))
		}
	}
}

func TestEvaluateMsgRoundtripQuick(t *testing.T) {
	f := func(wkr string, chi uint8, idx uint16, ct, el, pf []byte, inRange bool, val int64) bool {
		msg := &contract.EvaluateMsg{
			Worker: chain.Address(wkr),
			Chi:    int(chi),
			Wrong: []contract.WrongEntry{{
				QIdx: int(idx), Ct: ct, InRange: inRange, Value: val,
				Element: el, Proof: pf,
			}},
		}
		dec, err := contract.UnmarshalEvaluate(msg.Marshal())
		if err != nil {
			return false
		}
		w := dec.Wrong[0]
		return dec.Worker == msg.Worker && dec.Chi == msg.Chi &&
			w.QIdx == int(idx) && bytes.Equal(w.Ct, ct) && w.InRange == inRange &&
			w.Value == val && bytes.Equal(w.Element, el) && bytes.Equal(w.Proof, pf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOutrangeAndGoldenRoundtrip(t *testing.T) {
	om := &contract.OutrangeMsg{Worker: "w", QIdx: 9, Ct: []byte{1}, Element: []byte{2, 3}, Proof: []byte{4}}
	od, err := contract.UnmarshalOutrange(om.Marshal())
	if err != nil || od.Worker != "w" || od.QIdx != 9 || !bytes.Equal(od.Proof, []byte{4}) {
		t.Fatalf("outrange roundtrip: %+v %v", od, err)
	}
	gm := &contract.GoldenMsg{Golden: []byte("golden"), Key: commit.Key{9}}
	gd, err := contract.UnmarshalGoldenMsg(gm.Marshal())
	if err != nil || !bytes.Equal(gd.Golden, gm.Golden) || gd.Key != gm.Key {
		t.Fatalf("golden roundtrip: %+v %v", gd, err)
	}
}

func TestDecodersRejectGarbage(t *testing.T) {
	cm := &contract.CommitMsg{}
	enc := cm.Marshal()
	if _, err := contract.UnmarshalCommit(enc[:10]); err == nil {
		t.Error("truncated commit accepted")
	}
	if _, err := contract.UnmarshalCommit(append(enc, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := contract.UnmarshalPublish(nil); err == nil {
		t.Error("empty publish accepted")
	}
	if _, err := contract.UnmarshalReveal([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x01}); err == nil {
		t.Error("absurd ciphertext count accepted")
	}
	if _, err := contract.UnmarshalEvaluate([]byte{1, 'x', 0, 0xff, 0xff, 0x7f}); err == nil {
		t.Error("absurd wrong-entry count accepted")
	}
}

// TestRevealCommitmentMatchesCommit: the streamed commitment equals
// commit.Commit over the concatenated ciphertexts, for empty, short and
// rate-straddling (136-byte keccak blocks) payloads, and a reveal opens
// only under its own key.
func TestRevealCommitmentMatchesCommit(t *testing.T) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte(i)
	}
	for _, cts := range [][][]byte{
		nil,
		{{}},
		{{1, 2}, {3}},
		{long[:135], long[135:137], {}, long[137:]},
	} {
		msg := &contract.RevealMsg{Cts: cts, Key: commit.Key{7}}
		var payload []byte
		for _, ct := range cts {
			payload = append(payload, ct...)
		}
		if got, want := msg.Commitment(msg.Key), commit.Commit(payload, msg.Key); got != want {
			t.Errorf("%d-byte payload in %d ciphertexts: streamed %x, Commit %x", len(payload), len(cts), got, want)
		}
		if msg.Commitment(commit.Key{8}) == msg.Commitment(msg.Key) {
			t.Errorf("%d-byte payload: the commitment ignores the key", len(payload))
		}
	}
}
