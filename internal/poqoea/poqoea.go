// Package poqoea implements the paper's core contribution: the Proof of
// Quality of an Encrypted Answer (§V-A, Fig. 3). Given a vector of
// exponential-ElGamal ciphertexts answering a HIT whose golden-standard
// questions have indices G and ground truth Gs, the requester proves an
// upper bound χ on the answer's quality
//
//	Quality(a) = Σ_{i∈G} [a_i ≡ s_i]
//
// by revealing — with a verifiable-decryption (VPKE) proof each — the
// plaintexts of exactly those golden-standard positions the worker answered
// incorrectly. The verifier accepts iff χ plus the number of valid
// wrong-answer revelations covers all |G| golden standards; soundness of
// VPKE then makes χ a sound upper bound ("upper-bound soundness"), which
// suffices for fairness because the reward is monotone in quality. The
// construction is zero-knowledge in the paper's "special" sense: only
// already-simulatable information (the worker's performance on the few
// golden standards) is leaked.
package poqoea

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"

	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/parallel"
	"dragoon/internal/vpke"
)

// Statement fixes the public parameters of a quality proof: the golden
// standard indices/answers and the per-question option range.
type Statement struct {
	// GoldenIndices are the positions of golden-standard questions within
	// the answer vector (the paper's G ⊊ [0, N)).
	GoldenIndices []int
	// GoldenAnswers is the ground truth s_i for each golden index (Gs).
	GoldenAnswers []int64
	// RangeSize is the number of options per question (|range|).
	RangeSize int64
}

// Validate checks structural well-formedness of the statement.
func (s Statement) Validate(numQuestions int) error {
	if len(s.GoldenIndices) == 0 {
		return errors.New("poqoea: no golden standards")
	}
	if len(s.GoldenIndices) != len(s.GoldenAnswers) {
		return fmt.Errorf("poqoea: %d golden indices but %d answers",
			len(s.GoldenIndices), len(s.GoldenAnswers))
	}
	if s.RangeSize <= 1 {
		return fmt.Errorf("poqoea: range size %d too small", s.RangeSize)
	}
	seen := make(map[int]bool, len(s.GoldenIndices))
	for j, idx := range s.GoldenIndices {
		if idx < 0 || idx >= numQuestions {
			return fmt.Errorf("poqoea: golden index %d out of [0,%d)", idx, numQuestions)
		}
		if seen[idx] {
			return fmt.Errorf("poqoea: duplicate golden index %d", idx)
		}
		seen[idx] = true
		if s.GoldenAnswers[j] < 0 || s.GoldenAnswers[j] >= s.RangeSize {
			return fmt.Errorf("poqoea: golden answer %d out of range", s.GoldenAnswers[j])
		}
	}
	return nil
}

// expected returns the ground-truth answer for golden index idx.
func (s Statement) expected(idx int) (int64, bool) {
	for j, gi := range s.GoldenIndices {
		if gi == idx {
			return s.GoldenAnswers[j], true
		}
	}
	return 0, false
}

// WrongAnswer is one revealed incorrect golden-standard answer with its
// proof of correct decryption.
type WrongAnswer struct {
	// Index is the golden-standard position in the answer vector.
	Index int
	// Plain is the revealed decryption (integer in range, or bare element).
	Plain elgamal.Plaintext
	// Proof attests that the ciphertext at Index decrypts to Plain.
	Proof *vpke.Proof
}

// Proof is a PoQoEA proof: the set of wrong golden-standard answers. Its
// size is |G| − χ VPKE proofs, independent of the task size N — the source
// of the paper's constant-factor advantage over generic zk-proofs.
type Proof struct {
	Wrong []WrongAnswer
}

// Prove computes the true quality χ of the encrypted answer vector cts and a
// proof that χ is (an upper bound on) that quality. Only golden-standard
// positions are ever decrypted into the proof; all other answers stay
// confidential. It decrypts the golden positions concurrently and hands
// them to ProveOpened, so the proof is byte-for-byte ProveOpened's for the
// same randomness stream.
func Prove(sk *elgamal.PrivateKey, cts []elgamal.Ciphertext, st Statement, rnd io.Reader) (int, *Proof, error) {
	if err := st.Validate(len(cts)); err != nil {
		return 0, nil, err
	}
	plains := make([]elgamal.Plaintext, len(cts))
	_ = parallel.For(context.Background(), len(st.GoldenIndices), 0, func(j int) error {
		idx := st.GoldenIndices[j]
		plains[idx] = sk.Decrypt(cts[idx], st.RangeSize)
		return nil
	})
	return ProveOpened(sk, cts, plains, st, rnd)
}

// ProveOpened is Prove for a caller that has already decrypted the answers:
// plains[i] must be the decryption of cts[i] under sk (with the statement's
// range) for every golden index i; other entries are not read. A requester
// that decrypts every submission once for its own evaluation and harvest
// proves quality without decrypting a golden answer a second time.
// ProveOpened draws one Schnorr nonce per golden standard sequentially from
// rnd (so seeded runs stay reproducible) and then computes the VPKE
// transcripts concurrently; the resulting proof is byte-for-byte the
// sequential one.
func ProveOpened(sk *elgamal.PrivateKey, cts []elgamal.Ciphertext, plains []elgamal.Plaintext, st Statement, rnd io.Reader) (int, *Proof, error) {
	if err := st.Validate(len(cts)); err != nil {
		return 0, nil, err
	}
	if len(plains) != len(cts) {
		return 0, nil, fmt.Errorf("poqoea: %d plaintexts for %d ciphertexts", len(plains), len(cts))
	}
	nonces := make([]*big.Int, len(st.GoldenIndices))
	for j, idx := range st.GoldenIndices {
		x, err := group.RandomScalar(sk.Group, rnd)
		if err != nil {
			return 0, nil, fmt.Errorf("poqoea: proving decryption of answer %d: %w", idx, err)
		}
		nonces[j] = x
	}
	proofs, _ := parallel.Map(context.Background(), len(st.GoldenIndices), 0, func(j int) (*vpke.Proof, error) {
		idx := st.GoldenIndices[j]
		return vpke.ProveOpened(sk, cts[idx], plains[idx], nonces[j]), nil
	})
	quality := 0
	pf := &Proof{}
	for j, idx := range st.GoldenIndices {
		plain := plains[idx]
		if plain.InRange && plain.Value == st.GoldenAnswers[j] {
			quality++
			continue
		}
		pf.Wrong = append(pf.Wrong, WrongAnswer{Index: idx, Plain: plain, Proof: proofs[j]})
	}
	return quality, pf, nil
}

// Verify checks that claimedQuality is a sound upper bound on the quality of
// the encrypted answers, per Fig. 3 of the paper: every revealed answer must
// be a distinct golden-standard position, must differ from the ground truth,
// and must carry a valid VPKE proof; the claim is accepted iff
// claimedQuality + #valid revelations ≥ |G|.
func Verify(pk *elgamal.PublicKey, cts []elgamal.Ciphertext, claimedQuality int, pf *Proof, st Statement) bool {
	return verify(pk, cts, claimedQuality, pf, st, 0)
}

// VerifySequential is Verify on the calling goroutine: revelations are
// checked in order and checking stops at the first invalid one, as an EVM
// executing the verifier would. On-chain evaluation uses it — a metered
// group charges gas to its transaction's environment, which is not safe
// for concurrent use, and the gas charged must be the in-order prefix of
// verification work, independent of any worker count. The verdict always
// equals Verify's.
func VerifySequential(pk *elgamal.PublicKey, cts []elgamal.Ciphertext, claimedQuality int, pf *Proof, st Statement) bool {
	return verify(pk, cts, claimedQuality, pf, st, 1)
}

// verify is Verify with the VPKE checks spread over at most workers spans
// (0 = the pool default).
func verify(pk *elgamal.PublicKey, cts []elgamal.Ciphertext, claimedQuality int, pf *Proof, st Statement, workers int) bool {
	if pf == nil || st.Validate(len(cts)) != nil {
		return false
	}
	if claimedQuality < 0 || claimedQuality > len(st.GoldenIndices) {
		return false
	}
	// Structural checks (distinctness, golden membership, wrong-vs-truth)
	// are cheap and run first; the VPKE verifications — the dominant cost,
	// a handful of scalar multiplications each — then run on the worker
	// pool in contiguous spans, ONE work unit per worker rather than one
	// per question: per-item dispatch (a goroutine handoff per ~100 µs of
	// work) measurably regressed wall-clock at small worker counts. Bench
	// guard: on a single-core host Workers(0) is 1, every span helper takes
	// the sequential fast path, and BENCH_parallel.json "speedup" columns
	// read 1.0x by construction — that is not a regression. The
	// accept/reject verdict is unchanged: every revelation must verify
	// either way.
	counted, ok := structuralCheck(len(cts), claimedQuality, pf, st)
	if !ok {
		return false
	}
	errInvalid := errors.New("poqoea: invalid revelation")
	verifyOne := func(w WrongAnswer) bool {
		if w.Plain.InRange {
			return vpke.VerifyValue(pk, w.Plain.Value, cts[w.Index], w.Proof)
		}
		return vpke.VerifyElement(pk, w.Plain.Element, cts[w.Index], w.Proof)
	}
	err := parallel.ForSpans(context.Background(), len(pf.Wrong), workers, func(start, end int) error {
		for i := start; i < end; i++ {
			if !verifyOne(pf.Wrong[i]) {
				return errInvalid
			}
		}
		return nil
	})
	if err != nil {
		return false
	}
	return counted >= len(st.GoldenIndices)
}

// structuralCheck runs every non-cryptographic check of Fig. 3's verifier
// over a proof's revelations — distinct golden-standard positions, indices
// in range, revealed answers differing from the ground truth — and returns
// the covered count (claimed quality plus revelations). It is shared by
// Verify and VerifyBatch so both enforce identical structure.
func structuralCheck(numCts, claimedQuality int, pf *Proof, st Statement) (int, bool) {
	counted := claimedQuality
	seen := make(map[int]bool, len(pf.Wrong))
	for _, w := range pf.Wrong {
		expect, isGolden := st.expected(w.Index)
		if !isGolden || seen[w.Index] {
			return 0, false
		}
		seen[w.Index] = true
		if w.Index >= numCts {
			return 0, false
		}
		if w.Plain.InRange {
			if w.Plain.Value == expect {
				return 0, false // revealed answer is actually correct
			}
		} else if w.Plain.Element == nil {
			return 0, false
		}
		counted++
	}
	return counted, true
}

// Quality computes the plaintext quality function Quality(a; G, Gs) =
// Σ_{i∈G} [a_i ≡ s_i] (Iverson bracket), the paper's §IV definition. It is
// shared by the ideal functionality, the requester, and tests.
func Quality(answers []int64, st Statement) int {
	q := 0
	for j, idx := range st.GoldenIndices {
		if idx < len(answers) && answers[idx] == st.GoldenAnswers[j] {
			q++
		}
	}
	return q
}

// EncryptAnswers encrypts a full answer vector under pk — the worker-side
// helper used throughout the protocol and tests. Encryption randomness is
// drawn sequentially from rnd (one scalar per question, matching the
// sequential consumption order), then the crypto runs as one batch
// encryption — fixed-base tables for both bases and one batch
// normalization — so the ciphertext vector is identical to a sequential
// encryption with the same stream.
func EncryptAnswers(pk *elgamal.PublicKey, answers []int64, rnd io.Reader) ([]elgamal.Ciphertext, error) {
	rs := make([]*big.Int, len(answers))
	for i := range answers {
		r, err := group.RandomScalar(pk.Group, rnd)
		if err != nil {
			return nil, fmt.Errorf("poqoea: encrypting answer %d: %w", i, err)
		}
		rs[i] = r
	}
	cts, err := pk.EncryptBatchWithRandomness(answers, rs)
	if err != nil {
		return nil, fmt.Errorf("poqoea: encrypting answers: %w", err)
	}
	return cts, nil
}
