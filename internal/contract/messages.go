package contract

import (
	"fmt"

	"dragoon/internal/chain"
	"dragoon/internal/commit"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/vpke"
	"dragoon/internal/wire"
)

// Method names accepted by the HIT contract.
const (
	MethodPublish  = "publish"
	MethodCommit   = "commit"
	MethodReveal   = "reveal"
	MethodGolden   = "golden"
	MethodOutrange = "outrange"
	MethodEvaluate = "evaluate"
	MethodFinalize = "finalize"
)

// PublishMsg is the requester's task announcement (Fig. 4, phase 1):
// the public parameters (N, B, K, range, Θ), her encryption key h, the
// commitment to the golden standards, and the off-chain digest of the
// question content.
type PublishMsg struct {
	N               int
	Budget          ledger.Amount
	Workers         int
	RangeSize       int64
	Threshold       int
	PubKey          []byte // marshaled group element h
	CommGolden      commit.Commitment
	QuestionsDigest [32]byte
	// CommitRounds bounds how many rounds the commit phase may stay open
	// before the task can be cancelled (the ideal functionality leaves
	// tasks that never attract K workers unresolved; a deadline returns
	// the deposit).
	CommitRounds int
}

// Marshal encodes the message for calldata.
func (m *PublishMsg) Marshal() []byte {
	w := wire.NewWriter()
	w.WriteUint(uint64(m.N))
	w.WriteUint(uint64(m.Budget))
	w.WriteUint(uint64(m.Workers))
	w.WriteInt(m.RangeSize)
	w.WriteUint(uint64(m.Threshold))
	w.WriteBytes(m.PubKey)
	w.WriteFixed(m.CommGolden[:])
	w.WriteFixed(m.QuestionsDigest[:])
	w.WriteUint(uint64(m.CommitRounds))
	return w.Bytes()
}

// UnmarshalPublish decodes a PublishMsg.
func UnmarshalPublish(data []byte) (*PublishMsg, error) {
	r := wire.NewReader(data)
	m := &PublishMsg{}
	var err error
	var u uint64
	if u, err = r.ReadUint(); err != nil {
		return nil, fmt.Errorf("contract: publish.N: %w", err)
	}
	m.N = int(u)
	if u, err = r.ReadUint(); err != nil {
		return nil, fmt.Errorf("contract: publish.Budget: %w", err)
	}
	m.Budget = ledger.Amount(u)
	if u, err = r.ReadUint(); err != nil {
		return nil, fmt.Errorf("contract: publish.Workers: %w", err)
	}
	m.Workers = int(u)
	if m.RangeSize, err = r.ReadInt(); err != nil {
		return nil, fmt.Errorf("contract: publish.RangeSize: %w", err)
	}
	if u, err = r.ReadUint(); err != nil {
		return nil, fmt.Errorf("contract: publish.Threshold: %w", err)
	}
	m.Threshold = int(u)
	if m.PubKey, err = r.ReadBytes(); err != nil {
		return nil, fmt.Errorf("contract: publish.PubKey: %w", err)
	}
	cg, err := r.ReadFixed(32)
	if err != nil {
		return nil, fmt.Errorf("contract: publish.CommGolden: %w", err)
	}
	copy(m.CommGolden[:], cg)
	qd, err := r.ReadFixed(32)
	if err != nil {
		return nil, fmt.Errorf("contract: publish.QuestionsDigest: %w", err)
	}
	copy(m.QuestionsDigest[:], qd)
	if u, err = r.ReadUint(); err != nil {
		return nil, fmt.Errorf("contract: publish.CommitRounds: %w", err)
	}
	m.CommitRounds = int(u)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("contract: publish: %w", err)
	}
	return m, nil
}

// CommitMsg is a worker's answer commitment (Fig. 4, phase 2-a).
type CommitMsg struct {
	Comm commit.Commitment
}

// Marshal encodes the message for calldata.
func (m *CommitMsg) Marshal() []byte {
	w := wire.NewWriter()
	w.WriteFixed(m.Comm[:])
	return w.Bytes()
}

// UnmarshalCommit decodes a CommitMsg.
func UnmarshalCommit(data []byte) (*CommitMsg, error) {
	r := wire.NewReader(data)
	b, err := r.ReadFixed(32)
	if err != nil {
		return nil, fmt.Errorf("contract: commit: %w", err)
	}
	m := &CommitMsg{}
	copy(m.Comm[:], b)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("contract: commit: %w", err)
	}
	return m, nil
}

// RevealMsg opens a worker's commitment to the encrypted answer vector
// (Fig. 4, phase 2-b).
type RevealMsg struct {
	// Cts is the encrypted answer vector, one marshaled ciphertext per
	// question.
	Cts [][]byte
	// Key is the commitment blinding key.
	Key commit.Key
}

// Commitment returns the worker's commitment to the ciphertexts under key:
// commit.Commit over their concatenation, which is never built. The reveal
// opens comm when Commitment(Key) == comm.
func (m *RevealMsg) Commitment(key commit.Key) commit.Commitment {
	return commit.CommitParts(m.Cts, key)
}

// Marshal encodes the message for calldata.
func (m *RevealMsg) Marshal() []byte {
	n := wire.UintLen(uint64(len(m.Cts))) + len(m.Key)
	for _, ct := range m.Cts {
		n += wire.BytesLen(ct)
	}
	w := wire.NewWriterSize(n)
	w.WriteUint(uint64(len(m.Cts)))
	for _, ct := range m.Cts {
		w.WriteBytes(ct)
	}
	w.WriteFixed(m.Key[:])
	return w.Bytes()
}

// UnmarshalReveal decodes a RevealMsg.
func UnmarshalReveal(data []byte) (*RevealMsg, error) {
	r := wire.NewReader(data)
	n, err := r.ReadCount()
	if err != nil {
		return nil, fmt.Errorf("contract: reveal count: %w", err)
	}
	m := &RevealMsg{Cts: make([][]byte, n)}
	for i := range m.Cts {
		if m.Cts[i], err = r.ReadBytes(); err != nil {
			return nil, fmt.Errorf("contract: reveal ct %d: %w", i, err)
		}
	}
	key, err := r.ReadFixed(commit.KeySize)
	if err != nil {
		return nil, fmt.Errorf("contract: reveal key: %w", err)
	}
	copy(m.Key[:], key)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("contract: reveal: %w", err)
	}
	return m, nil
}

// GoldenMsg is the requester's public opening of the golden-standard
// commitment (Fig. 4, phase 3), enabling the audit property.
type GoldenMsg struct {
	// Golden is the encoded (G ‖ Gs) produced by task.Golden.Marshal.
	Golden []byte
	// Key is the commitment blinding key.
	Key commit.Key
}

// Marshal encodes the message for calldata.
func (m *GoldenMsg) Marshal() []byte {
	w := wire.NewWriter()
	w.WriteBytes(m.Golden)
	w.WriteFixed(m.Key[:])
	return w.Bytes()
}

// UnmarshalGoldenMsg decodes a GoldenMsg.
func UnmarshalGoldenMsg(data []byte) (*GoldenMsg, error) {
	r := wire.NewReader(data)
	m := &GoldenMsg{}
	var err error
	if m.Golden, err = r.ReadBytes(); err != nil {
		return nil, fmt.Errorf("contract: golden payload: %w", err)
	}
	key, err := r.ReadFixed(commit.KeySize)
	if err != nil {
		return nil, fmt.Errorf("contract: golden key: %w", err)
	}
	copy(m.Key[:], key)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("contract: golden: %w", err)
	}
	return m, nil
}

// OutrangeMsg is the requester's proof that one of a worker's answers is
// outside the option range (Fig. 4: (outrange, Wj, i, a(i,j), πi)).
type OutrangeMsg struct {
	Worker chain.Address
	// QIdx is the out-of-range question index.
	QIdx int
	// Ct is the marshaled ciphertext at QIdx (checked against the stored
	// hash; the contract keeps only hashes on-chain).
	Ct []byte
	// Element is the marshaled revealed plaintext element g^m.
	Element []byte
	// Proof is the marshaled VPKE proof.
	Proof []byte
}

// Marshal encodes the message for calldata.
func (m *OutrangeMsg) Marshal() []byte {
	w := wire.NewWriter()
	w.WriteString(string(m.Worker))
	w.WriteUint(uint64(m.QIdx))
	w.WriteBytes(m.Ct)
	w.WriteBytes(m.Element)
	w.WriteBytes(m.Proof)
	return w.Bytes()
}

// UnmarshalOutrange decodes an OutrangeMsg.
func UnmarshalOutrange(data []byte) (*OutrangeMsg, error) {
	r := wire.NewReader(data)
	m := &OutrangeMsg{}
	s, err := r.ReadString()
	if err != nil {
		return nil, fmt.Errorf("contract: outrange worker: %w", err)
	}
	m.Worker = chain.Address(s)
	u, err := r.ReadUint()
	if err != nil {
		return nil, fmt.Errorf("contract: outrange index: %w", err)
	}
	m.QIdx = int(u)
	if m.Ct, err = r.ReadBytes(); err != nil {
		return nil, fmt.Errorf("contract: outrange ct: %w", err)
	}
	if m.Element, err = r.ReadBytes(); err != nil {
		return nil, fmt.Errorf("contract: outrange element: %w", err)
	}
	if m.Proof, err = r.ReadBytes(); err != nil {
		return nil, fmt.Errorf("contract: outrange proof: %w", err)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("contract: outrange: %w", err)
	}
	return m, nil
}

// WrongEntry is one revealed wrong golden-standard answer inside an
// EvaluateMsg: the question index, the worker's ciphertext at that index
// (re-supplied as calldata, hash-checked on-chain), the revealed plaintext
// and the VPKE proof.
type WrongEntry struct {
	QIdx int
	Ct   []byte
	// InRange distinguishes a revealed in-range value from a bare element.
	InRange bool
	Value   int64
	Element []byte
	Proof   []byte
}

// EvaluateMsg is the requester's PoQoEA-backed quality claim for one worker
// (Fig. 4: (evaluate, Wj, χj, π)).
type EvaluateMsg struct {
	Worker chain.Address
	Chi    int
	Wrong  []WrongEntry
}

// Marshal encodes the message for calldata.
func (m *EvaluateMsg) Marshal() []byte {
	w := wire.NewWriter()
	w.WriteString(string(m.Worker))
	w.WriteUint(uint64(m.Chi))
	w.WriteUint(uint64(len(m.Wrong)))
	for _, e := range m.Wrong {
		w.WriteUint(uint64(e.QIdx))
		w.WriteBytes(e.Ct)
		w.WriteBool(e.InRange)
		w.WriteInt(e.Value)
		w.WriteBytes(e.Element)
		w.WriteBytes(e.Proof)
	}
	return w.Bytes()
}

// UnmarshalEvaluate decodes an EvaluateMsg.
func UnmarshalEvaluate(data []byte) (*EvaluateMsg, error) {
	r := wire.NewReader(data)
	m := &EvaluateMsg{}
	s, err := r.ReadString()
	if err != nil {
		return nil, fmt.Errorf("contract: evaluate worker: %w", err)
	}
	m.Worker = chain.Address(s)
	u, err := r.ReadUint()
	if err != nil {
		return nil, fmt.Errorf("contract: evaluate chi: %w", err)
	}
	m.Chi = int(u)
	n, err := r.ReadCount()
	if err != nil {
		return nil, fmt.Errorf("contract: evaluate count: %w", err)
	}
	m.Wrong = make([]WrongEntry, n)
	for i := range m.Wrong {
		e := &m.Wrong[i]
		if u, err = r.ReadUint(); err != nil {
			return nil, fmt.Errorf("contract: wrong %d idx: %w", i, err)
		}
		e.QIdx = int(u)
		if e.Ct, err = r.ReadBytes(); err != nil {
			return nil, fmt.Errorf("contract: wrong %d ct: %w", i, err)
		}
		if e.InRange, err = r.ReadBool(); err != nil {
			return nil, fmt.Errorf("contract: wrong %d flag: %w", i, err)
		}
		if e.Value, err = r.ReadInt(); err != nil {
			return nil, fmt.Errorf("contract: wrong %d value: %w", i, err)
		}
		if e.Element, err = r.ReadBytes(); err != nil {
			return nil, fmt.Errorf("contract: wrong %d element: %w", i, err)
		}
		if e.Proof, err = r.ReadBytes(); err != nil {
			return nil, fmt.Errorf("contract: wrong %d proof: %w", i, err)
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("contract: evaluate: %w", err)
	}
	return m, nil
}

// decodeCiphertext decodes a marshaled ciphertext against a group backend.
func decodeCiphertext(g group.Group, data []byte) (elgamal.Ciphertext, error) {
	return elgamal.UnmarshalCiphertext(g, data)
}

// decodeProof decodes a marshaled VPKE proof against a group backend.
func decodeProof(g group.Group, data []byte) (*vpke.Proof, error) {
	return vpke.UnmarshalProof(g, data)
}
