// Package protocol implements the off-chain halves of Π_hit (Fig. 5): the
// requester client and the worker client. Both are event-driven round
// automata: each clock round they inspect the public chain state (receipts
// and event logs — the only view a real Ethereum client has) and submit the
// transactions the protocol prescribes. The requester additionally manages
// the task's key pair, publishes question content to off-chain storage, and
// generates VPKE/PoQoEA proofs to reject unqualified submissions.
package protocol

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"dragoon/internal/batch"
	"dragoon/internal/chain"
	"dragoon/internal/commit"
	"dragoon/internal/contract"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/parallel"
	"dragoon/internal/poqoea"
	"dragoon/internal/swarm"
	"dragoon/internal/task"
	"dragoon/internal/vpke"
)

// RequesterPolicy selects the requester's evaluation behaviour, used to
// exercise both the honest protocol and the misbehaviours the security
// analysis must defeat.
type RequesterPolicy int

// Requester policies.
const (
	// PolicyHonest follows Fig. 5: open the golden standards, reject
	// out-of-range answers with VPKE and below-threshold answers with
	// PoQoEA, stay silent about qualified answers.
	PolicyHonest RequesterPolicy = iota + 1
	// PolicySilent never sends any evaluation message (the "no message
	// from R" branch: everyone revealed gets paid).
	PolicySilent
	// PolicyNoGolden refuses to open the golden-standard commitment, so no
	// rejection is possible and everyone revealed gets paid.
	PolicyNoGolden
	// PolicyFalseReport tries to reject every worker with an underclaimed
	// quality χ = 0 and whatever (insufficient) proof exists — the
	// false-reporting attack; the contract must pay the workers instead.
	PolicyFalseReport
	// PolicyPrematureCancel tries to claw the deposit back by submitting
	// finalize every single round, starting while the commit phase is
	// still open. The contract must revert every premature attempt; the
	// one that finally lands (after the evaluation window) pays every
	// revealed worker, since this requester never rejects anyone.
	PolicyPrematureCancel
	// PolicyGarbledProof rejects every worker with χ = 0 backed by
	// garbled proof bytes (each VPKE proof corrupted after honest
	// generation) — the forged-proof attack. Proof verification must fail
	// on-chain and the contract must pay the workers instead.
	PolicyGarbledProof
	// PolicyWithholdQuestions publishes the task on-chain but never
	// uploads the question content to off-chain storage. Workers cannot
	// verify the content against the on-chain digest, so they never
	// commit; the quota cannot fill, and after the commit deadline the
	// task cancels and refunds the deposit — nobody loses funds.
	PolicyWithholdQuestions
)

// Requester is the off-chain requester client.
type Requester struct {
	Addr chain.Address

	chain chain.Backend
	store *swarm.Store
	rand  io.Reader

	inst         *task.Instance
	sk           *elgamal.PrivateKey
	goldenKey    commit.Key
	contractID   ledger.ContractID
	policy       RequesterPolicy
	commitRounds int

	published       bool
	goldenSent      bool
	evaluationsSent bool
	finalizeSent    bool

	// batchVerify selects the batched round-verification path: revealed
	// submissions are decoded — with per-element well-formedness checks —
	// in one fan-out per submission instead of element by element. Resolved
	// once at construction from the config's tri-state override and the
	// process-wide knob; the decoded vectors (and thus the whole transcript)
	// are identical either way.
	batchVerify bool

	// obs is the requester's incrementally-updated view of its contract's
	// event log (each round folds only the new events).
	obs *contract.Observer

	// logTable amortizes short-range decryption across the K·N
	// ciphertexts of a task (lazily built; logTableOnce guards the build so
	// concurrent decryptions race neither on the pointer nor on a
	// half-built table).
	logTableOnce sync.Once
	logTable     *elgamal.ShortLogTable

	// harvest holds the answer vector (−1 for an out-of-range answer) of
	// every submission opened so far, indexed like the view's
	// submissions; nil until that submission is opened. Evaluation fills
	// it, so Answers decrypts only what evaluation never opened. Only
	// these compact vectors outlive an evaluation: ciphertexts and
	// decrypted group elements do not.
	harvest [][]int64
}

// RequesterConfig configures a requester client.
type RequesterConfig struct {
	Addr chain.Address
	// Chain is the chain surface the client drives — a live *chain.Chain,
	// or a replay backend when a service reconstructs the client's state.
	Chain    chain.Backend
	Store    *swarm.Store
	Instance *task.Instance
	Policy   RequesterPolicy
	Group    group.Group
	// Key optionally reuses an existing requester key pair: "Dragoon
	// enables the requester to manage only one private-public key pair
	// throughout all her tasks, because all protocol scripts are
	// simulatable without secret key and therefore leak nothing relevant"
	// (§VI). A fresh pair is generated when nil.
	Key *elgamal.PrivateKey
	// CommitRounds bounds how long the commit phase stays open before the
	// task can be cancelled (default 8 rounds).
	CommitRounds int
	// Rand supplies protocol randomness (crypto/rand if nil).
	Rand io.Reader
	// BatchVerify selects the batched submission-decode path for this
	// client when > 0; otherwise each submission is decoded on its own.
	BatchVerify int
}

// NewRequester creates a requester client, generating its ElGamal key pair
// — "the requester [manages] only one private-public key pair throughout
// all her tasks" (§VI).
func NewRequester(cfg RequesterConfig) (*Requester, error) {
	if cfg.Policy == 0 {
		cfg.Policy = PolicyHonest
	}
	if cfg.CommitRounds == 0 {
		cfg.CommitRounds = 8
	}
	if err := cfg.Instance.Task.Validate(); err != nil {
		return nil, fmt.Errorf("protocol: invalid task: %w", err)
	}
	sk := cfg.Key
	if sk == nil {
		var err error
		sk, err = elgamal.KeyGen(cfg.Group, cfg.Rand)
		if err != nil {
			return nil, fmt.Errorf("protocol: requester keygen: %w", err)
		}
	} else if sk.Group.Name() != cfg.Group.Name() {
		return nil, fmt.Errorf("protocol: key over group %q, task over %q",
			sk.Group.Name(), cfg.Group.Name())
	}
	id := ledger.ContractID(cfg.Instance.Task.ID)
	return &Requester{
		Addr:         cfg.Addr,
		chain:        cfg.Chain,
		store:        cfg.Store,
		rand:         cfg.Rand,
		inst:         cfg.Instance,
		sk:           sk,
		contractID:   id,
		policy:       cfg.Policy,
		commitRounds: cfg.CommitRounds,
		batchVerify:  batch.Resolve(cfg.BatchVerify),
		obs:          contract.NewObserver(cfg.Chain, id),
	}, nil
}

// decode reads a revealed submission through the configured verification
// path (batched or element-by-element; the result is identical).
func (r *Requester) decode(data []byte) ([]elgamal.Ciphertext, error) {
	if r.batchVerify {
		return decodeSubmissionBatched(r.sk.Group, data, r.inst.Task.N())
	}
	return decodeSubmission(r.sk.Group, data, r.inst.Task.N())
}

// ContractID returns the on-chain contract instance this requester drives.
func (r *Requester) ContractID() ledger.ContractID { return r.contractID }

// PublicKey exposes the requester's encryption key (h).
func (r *Requester) PublicKey() *elgamal.PublicKey { return &r.sk.PublicKey }

// View folds the contract events mined since the previous read into the
// requester's view of its task and returns it. The view is the client's
// own: callers must not modify it, nor read it from another goroutine.
func (r *Requester) View() (*contract.View, error) { return r.obs.Refresh() }

// Launch deploys the HIT contract and publishes the task: question content
// goes to off-chain storage, only its digest plus the protocol parameters
// and the golden-standard commitment go on-chain, and the budget B is
// frozen (Fig. 5, phase 1).
func (r *Requester) Launch() error {
	if r.published {
		return errors.New("protocol: task already published")
	}
	t := &r.inst.Task
	g := r.sk.Group

	if _, err := r.chain.Deploy(r.contractID, contract.New(g), contract.DeployCodeSize, r.Addr); err != nil {
		return fmt.Errorf("protocol: deploying contract: %w", err)
	}
	var questionsDigest swarm.Digest
	if r.policy == PolicyWithholdQuestions {
		// Commit the digest on-chain but never upload the content: workers
		// can neither fetch nor verify the questions, so they must not
		// commit and the task must eventually cancel.
		questionsDigest = swarm.Address(t.MarshalQuestions())
	} else {
		questionsDigest = r.store.Put(t.MarshalQuestions())
	}

	key, err := commit.NewKey(r.rand)
	if err != nil {
		return fmt.Errorf("protocol: golden commitment key: %w", err)
	}
	r.goldenKey = key
	msg := &contract.PublishMsg{
		N:               t.N(),
		Budget:          t.Budget,
		Workers:         t.Workers,
		RangeSize:       t.RangeSize,
		Threshold:       t.Threshold,
		PubKey:          g.Marshal(r.sk.H),
		CommGolden:      commit.Commit(r.inst.Golden.Marshal(), key),
		QuestionsDigest: questionsDigest,
		CommitRounds:    r.commitRounds,
	}
	if err := r.chain.Submit(&chain.Tx{
		From:     r.Addr,
		Contract: r.contractID,
		Method:   contract.MethodPublish,
		Data:     msg.Marshal(),
	}); err != nil {
		return err
	}
	r.published = true
	return nil
}

// Step advances the requester one clock round (called before each round is
// mined). It inspects the public event log and submits whatever phase-3
// transactions are due.
func (r *Requester) Step() error {
	if !r.published {
		return nil
	}
	view, err := r.View()
	if err != nil {
		return err
	}
	round := r.chain.Round()
	if view.Published == nil || view.Finalized || view.Cancelled {
		return nil
	}

	if r.policy == PolicyPrematureCancel {
		// Hammer finalize every round, starting while the commit phase is
		// still open: every premature attempt must revert, and the one
		// that finally lands settles the task (paying every revealed
		// worker — this requester never rejected anyone).
		return r.chain.Submit(&chain.Tx{
			From:     r.Addr,
			Contract: r.contractID,
			Method:   contract.MethodFinalize,
		})
	}

	// If the commit phase never filled, cancel after its deadline to
	// recover the deposit.
	if view.CommittedRound < 0 {
		if !r.finalizeSent && round > view.PublishedRound+r.commitRounds {
			r.finalizeSent = true
			return r.chain.Submit(&chain.Tx{
				From:     r.Addr,
				Contract: r.contractID,
				Method:   contract.MethodFinalize,
			})
		}
		return nil
	}

	// Enter evaluation once the reveal window is over.
	if round <= view.CommittedRound+contract.RevealRounds {
		return nil
	}

	if !r.goldenSent {
		r.goldenSent = true
		if r.policy == PolicyNoGolden {
			return nil
		}
		msg := &contract.GoldenMsg{Golden: r.inst.Golden.Marshal(), Key: r.goldenKey}
		return r.chain.Submit(&chain.Tx{
			From:     r.Addr,
			Contract: r.contractID,
			Method:   contract.MethodGolden,
			Data:     msg.Marshal(),
		})
	}

	// Send evaluations only after the golden opening is confirmed on-chain
	// (ordering within a round is adversarial, so the client sequences
	// across rounds).
	if !r.evaluationsSent && view.GoldenRevealed {
		r.evaluationsSent = true
		if r.policy != PolicySilent && r.policy != PolicyNoGolden {
			if err := r.evaluateAll(view); err != nil {
				return err
			}
		}
		return nil
	}

	// Finalize after the evaluation window closes.
	evalEnd := view.CommittedRound + contract.RevealRounds + contract.EvalRounds
	if !r.finalizeSent && round > evalEnd {
		r.finalizeSent = true
		return r.chain.Submit(&chain.Tx{
			From:     r.Addr,
			Contract: r.contractID,
			Method:   contract.MethodFinalize,
		})
	}
	return nil
}

// evaluateAll opens every revealed submission and sends the rejection
// transactions the policy calls for.
func (r *Requester) evaluateAll(view *contract.View) error {
	st := r.inst.Golden.Statement(r.inst.Task.RangeSize)
	for i, sub := range view.Submissions {
		if r.policy == PolicyFalseReport {
			// Underclaim χ=0 with no proof: the contract must treat this
			// as an invalid rejection and pay the worker. Nothing needs
			// decrypting.
			if _, err := r.decode(sub.Data); err != nil {
				return fmt.Errorf("protocol: decoding submission of %s: %w", sub.Worker, err)
			}
			msg := &contract.EvaluateMsg{Worker: sub.Worker, Chi: 0}
			if err := r.submitEval(contract.MethodEvaluate, msg.Marshal()); err != nil {
				return err
			}
			continue
		}
		cts, plains, err := r.open(i, sub)
		if err != nil {
			return fmt.Errorf("protocol: decoding submission of %s: %w", sub.Worker, err)
		}
		switch r.policy {
		case PolicyGarbledProof:
			// Underclaim χ=0 backed by honestly-generated but garbled
			// VPKE proofs: on-chain verification must fail and pay the
			// worker.
			if err := r.garbledEvaluate(sub.Worker, cts, plains, st); err != nil {
				return err
			}
			continue
		case PolicyHonest:
		default:
			continue
		}

		if idx, pi, found, err := r.findOutOfRange(cts, plains); err != nil {
			return err
		} else if found {
			msg := &contract.OutrangeMsg{
				Worker:  sub.Worker,
				QIdx:    idx,
				Ct:      elgamal.MarshalCiphertext(r.sk.Group, cts[idx]),
				Element: r.sk.Group.Marshal(plains[idx].Element),
				Proof:   vpke.MarshalProof(r.sk.Group, pi),
			}
			if err := r.submitEval(contract.MethodOutrange, msg.Marshal()); err != nil {
				return err
			}
			continue
		}

		quality, pf, err := poqoea.ProveOpened(r.sk, cts, plains, st, r.rand)
		if err != nil {
			return fmt.Errorf("protocol: proving quality of %s: %w", sub.Worker, err)
		}
		if quality >= r.inst.Task.Threshold {
			continue // qualified: stay silent, the default pays the worker
		}
		msg := r.evaluateMsg(sub.Worker, quality, cts, pf)
		if err := r.submitEval(contract.MethodEvaluate, msg.Marshal()); err != nil {
			return err
		}
	}
	return nil
}

// garbledEvaluate sends the forged-proof rejection of PolicyGarbledProof:
// a χ=0 claim whose wrong-answer entries carry honestly-generated VPKE
// proofs with their bytes corrupted.
func (r *Requester) garbledEvaluate(worker chain.Address, cts []elgamal.Ciphertext, plains []elgamal.Plaintext, st poqoea.Statement) error {
	_, pf, err := poqoea.ProveOpened(r.sk, cts, plains, st, r.rand)
	if err != nil {
		return fmt.Errorf("protocol: proving quality of %s: %w", worker, err)
	}
	msg := r.evaluateMsg(worker, 0, cts, pf)
	for i := range msg.Wrong {
		if len(msg.Wrong[i].Proof) > 0 {
			msg.Wrong[i].Proof[0] ^= 0xFF // the forgery
		}
	}
	return r.submitEval(contract.MethodEvaluate, msg.Marshal())
}

// evaluateMsg builds the quality claim χ = chi whose wrong-answer entries
// carry pf's revelations.
func (r *Requester) evaluateMsg(worker chain.Address, chi int, cts []elgamal.Ciphertext, pf *poqoea.Proof) *contract.EvaluateMsg {
	msg := &contract.EvaluateMsg{Worker: worker, Chi: chi}
	for _, w := range pf.Wrong {
		entry := contract.WrongEntry{
			QIdx:    w.Index,
			Ct:      elgamal.MarshalCiphertext(r.sk.Group, cts[w.Index]),
			InRange: w.Plain.InRange,
			Value:   w.Plain.Value,
			Proof:   vpke.MarshalProof(r.sk.Group, w.Proof),
		}
		if !w.Plain.InRange {
			entry.Element = r.sk.Group.Marshal(w.Plain.Element)
		}
		msg.Wrong = append(msg.Wrong, entry)
	}
	return msg
}

// decryptTable returns the lazily-built short-log table for the task's
// answer range. Safe for concurrent use: the first caller resolves the
// table from the process-wide registry (shared across tasks with the same
// range size), every other caller waits on the Once.
func (r *Requester) decryptTable() *elgamal.ShortLogTable {
	r.logTableOnce.Do(func() {
		r.logTable = elgamal.SharedShortLogTable(r.sk.Group, r.inst.Task.RangeSize)
	})
	return r.logTable
}

// open decodes revealed submission i and decrypts each of its ciphertexts
// exactly once, in contiguous spans on the work pool (one work unit per
// pool worker; each span writes only its own slots), each span in one
// DecryptMany call. It records the submission's answer vector for Answers
// and returns the ciphertexts and plaintexts for evaluation to prove from.
func (r *Requester) open(i int, sub contract.Submission) ([]elgamal.Ciphertext, []elgamal.Plaintext, error) {
	cts, err := r.decode(sub.Data)
	if err != nil {
		return nil, nil, err
	}
	table := r.decryptTable()
	plains := make([]elgamal.Plaintext, len(cts))
	answers := make([]int64, len(cts))
	_ = parallel.ForSpans(context.Background(), len(cts), 0, func(start, end int) error {
		copy(plains[start:end], r.sk.DecryptMany(table, cts[start:end]))
		for q := start; q < end; q++ {
			answers[q] = -1 // out of range
			if plains[q].InRange {
				answers[q] = plains[q].Value
			}
		}
		return nil
	})
	if i >= len(r.harvest) {
		r.harvest = append(r.harvest, make([][]int64, i+1-len(r.harvest))...)
	}
	r.harvest[i] = answers
	return cts, plains, nil
}

// findOutOfRange finds the first out-of-range answer among a submission's
// decryptions and builds its VPKE opening.
func (r *Requester) findOutOfRange(cts []elgamal.Ciphertext, plains []elgamal.Plaintext) (int, *vpke.Proof, bool, error) {
	for i, plain := range plains {
		if plain.InRange {
			continue
		}
		x, err := group.RandomScalar(r.sk.Group, r.rand)
		if err != nil {
			return 0, nil, false, fmt.Errorf("protocol: out-of-range proof: %w", err)
		}
		return i, vpke.ProveOpened(r.sk, cts[i], plain, x), true, nil
	}
	return 0, nil, false, nil
}

func (r *Requester) submitEval(method string, data []byte) error {
	return r.chain.Submit(&chain.Tx{
		From:     r.Addr,
		Contract: r.contractID,
		Method:   method,
		Data:     data,
	})
}

// Answers returns all revealed submissions decrypted (the requester's
// deliverable: the crowdsourced data) as a map from worker to plaintext
// answer vector, −1 marking an out-of-range answer. Submissions evaluation
// already opened are not decrypted again; the caller owns the returned
// slices.
func (r *Requester) Answers() (map[chain.Address][]int64, error) {
	view, err := r.View()
	if err != nil {
		return nil, err
	}
	out := make(map[chain.Address][]int64, len(view.Submissions))
	for i, sub := range view.Submissions {
		if i >= len(r.harvest) || r.harvest[i] == nil {
			if _, _, err := r.open(i, sub); err != nil {
				return nil, err
			}
		}
		out[sub.Worker] = slices.Clone(r.harvest[i])
	}
	return out, nil
}

// decodeSubmission decodes a revealed event payload into ciphertexts,
// validating the well-formedness (group membership) of every element one by
// one.
func decodeSubmission(g group.Group, data []byte, n int) ([]elgamal.Ciphertext, error) {
	msg, err := parseSubmission(data, n)
	if err != nil {
		return nil, err
	}
	cts := make([]elgamal.Ciphertext, n)
	for i, raw := range msg.Cts {
		if cts[i], err = elgamal.UnmarshalCiphertext(g, raw); err != nil {
			return nil, fmt.Errorf("protocol: ciphertext %d: %w", i, err)
		}
	}
	return cts, nil
}

// decodeSubmissionBatched is decodeSubmission with the element
// well-formedness checks fanned out over the work pool in one batched call
// (batch.DecodeCiphertexts) — the requester's round verification of a
// revealed submission when batching is enabled. The decoded vector is
// identical to the sequential path; on failure the lowest offending index's
// error is returned, as a sequential scan would.
func decodeSubmissionBatched(g group.Group, data []byte, n int) ([]elgamal.Ciphertext, error) {
	msg, err := parseSubmission(data, n)
	if err != nil {
		return nil, err
	}
	cts, err := batch.DecodeCiphertexts(g, msg.Cts)
	if err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	return cts, nil
}

// parseSubmission unwraps a revealed event payload and checks the vector
// length.
func parseSubmission(data []byte, n int) (*contract.RevealMsg, error) {
	msg, err := contract.UnmarshalReveal(data)
	if err != nil {
		return nil, err
	}
	if len(msg.Cts) != n {
		return nil, fmt.Errorf("protocol: submission has %d ciphertexts, want %d", len(msg.Cts), n)
	}
	return msg, nil
}
