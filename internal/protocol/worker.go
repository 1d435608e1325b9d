package protocol

import (
	"errors"
	"fmt"
	"io"

	"dragoon/internal/chain"
	"dragoon/internal/commit"
	"dragoon/internal/contract"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/incentive"
	"dragoon/internal/ledger"
	"dragoon/internal/poqoea"
	"dragoon/internal/swarm"
	"dragoon/internal/task"
)

// AnswerFn produces a worker's answer vector once the task content is
// known. Worker behaviour models (package worker) provide implementations.
type AnswerFn func(questions []task.Question, rangeSize int64) []int64

// WorkerStrategy tweaks a worker client's protocol behaviour to exercise
// attacks and failure modes.
type WorkerStrategy int

// Worker strategies.
const (
	// StrategyHonest follows Fig. 5: commit, then reveal.
	StrategyHonest WorkerStrategy = iota + 1
	// StrategyNoReveal commits but never opens (c_j = ⊥: no payment, the
	// worker's share returns to the requester).
	StrategyNoReveal
	// StrategyCopyCommit is the free-riding attack the paper's
	// confidentiality requirement defends against: the worker watches the
	// chain and re-submits the first answer commitment it sees. The
	// contract must reject the duplicate, and the underlying ciphertexts
	// are unreadable, so there is nothing useful to copy anyway.
	StrategyCopyCommit
	// StrategyGarbledReveal commits honestly but opens with a garbled
	// ciphertext vector (one byte flipped), so Open(comm, c', key) fails:
	// the commitment binding must reject the opening on-chain and the
	// worker ends unrevealed and unpaid.
	StrategyGarbledReveal
	// StrategyReplayReveal commits honestly but, instead of opening its own
	// commitment, replays the first reveal transcript another worker
	// landed on-chain — the transcript-replay attack. The replayed payload
	// cannot open this worker's commitment, so the reveal must revert.
	StrategyReplayReveal
	// StrategyEquivocate lands two different commitments in the same round
	// (the double-commit equivocation). The contract must accept exactly
	// one; the worker keeps the opening of the FIRST it sent, so under an
	// honest schedule it behaves like an honest worker, while a reordering
	// adversary can make the other commitment win and strand the opening.
	StrategyEquivocate
	// StrategyLateCommit waits until the last round of the commit window
	// and lands its commitment exactly on the phase boundary. Any
	// adversarial one-round delay pushes it past the deadline and the
	// commit reverts.
	StrategyLateCommit
	// StrategyRational plays the paper's rational worker: when it first
	// observes the task's posted terms (reward B/K, threshold Θ, option
	// range) it computes the expected utility of honest effort, zero-effort
	// guessing and abstention under its private economic profile
	// (accuracy, costs, knowledge of |G|) and follows the maximizing
	// action for the rest of the run — committing its honest stream, its
	// guess stream, or nothing at all. Requires WorkerConfig.Rational.
	StrategyRational
	// StrategyCollude marks one member of a collusion ring: protocol
	// mechanics stay honest (own commitment, own encryption, own reveal)
	// but the plaintext answer stream is produced once and shared by the
	// whole ring (see package worker's CollusionRing), so the coalition
	// spends the answering effort once and splits the payoff. The
	// golden-standard audit grades every member by that one stream, which
	// is what makes effort-skipping rings unprofitable.
	StrategyCollude
	// StrategySybil marks one address of a sybil principal: a single
	// actor enrolling under many chain addresses, each submitting the same
	// shared answer stream under its own commitment (see package worker's
	// SybilSwarm). Per-address enrollment multiplies the principal's
	// submission costs, not its audit odds.
	StrategySybil
)

// RationalProfile is a rational worker's private economic type: what
// honest effort costs it, what accuracy that effort buys, the fixed cost
// of participating at all, and its knowledge of the golden-standard count
// (|G| is posted with the off-chain task description; the on-chain publish
// hides it inside the golden commitment).
type RationalProfile struct {
	// Accuracy is the per-question correctness probability honest effort
	// achieves.
	Accuracy float64
	// EffortCost is the cost of answering at that accuracy.
	EffortCost float64
	// SubmitCost is the fixed participation cost (commit + reveal gas), in
	// the same unit as the reward.
	SubmitCost float64
	// NumGolden is the worker's belief about |G|. Zero falls back to the
	// posted threshold Θ (the smallest |G| consistent with the contract).
	NumGolden int
}

// Params assembles the incentive environment the profile faces under a
// task's posted terms.
func (rp RationalProfile) Params(published *contract.PublishMsg) incentive.Params {
	g := rp.NumGolden
	if g == 0 {
		g = published.Threshold
	}
	return incentive.Params{
		NumGolden:  g,
		Threshold:  published.Threshold,
		RangeSize:  published.RangeSize,
		Reward:     float64(contract.RewardOf(published)),
		SubmitCost: rp.SubmitCost,
	}
}

// RationalBehaviour equips a rational worker with its economic profile and
// the two answer streams it can play.
type RationalBehaviour struct {
	// Profile is the worker's private economic type.
	Profile RationalProfile
	// Honest produces the effortful answers (accuracy Profile.Accuracy).
	Honest AnswerFn
	// Guess produces the zero-effort answers (uniform guessing).
	Guess AnswerFn
}

// Worker is the off-chain worker client.
type Worker struct {
	Addr chain.Address

	chain chain.Backend
	store *swarm.Store
	g     group.Group
	rand  io.Reader

	contractID ledger.ContractID
	strategy   WorkerStrategy
	answerFn   AnswerFn

	// rational holds the economic behaviour of a StrategyRational worker;
	// choice/decided latch its one-time utility-maximizing decision, made
	// when the posted terms are first observed.
	rational *RationalBehaviour
	choice   incentive.Choice
	decided  bool

	committed bool
	revealed  bool
	reveal    *contract.RevealMsg

	// obs is the worker's incrementally-updated view of its contract's
	// event log. It is refreshed from Prepare and StepTxs only; harnesses
	// running many workers' StepTxs concurrently give each worker its own
	// observer, so no cursor is ever shared across goroutines.
	obs *contract.Observer

	// preparedAnswers holds the answer vector resolved by Prepare, consumed
	// by the next commit attempt.
	preparedAnswers []int64
}

// WorkerConfig configures a worker client.
type WorkerConfig struct {
	Addr chain.Address
	// Chain is the chain surface the client drives — a live *chain.Chain,
	// or a replay backend when a service reconstructs the client's state.
	Chain      chain.Backend
	Store      *swarm.Store
	Group      group.Group
	ContractID ledger.ContractID
	Strategy   WorkerStrategy
	// AnswerFn decides the answers (required unless the strategy never
	// answers, or is rational — see Rational).
	AnswerFn AnswerFn
	// Rational supplies a StrategyRational worker's profile and answer
	// streams (required for, and only consulted by, that strategy).
	Rational *RationalBehaviour
	// Rand supplies protocol randomness (crypto/rand if nil).
	Rand io.Reader
}

// NewWorker creates a worker client.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Strategy == 0 {
		cfg.Strategy = StrategyHonest
	}
	if cfg.Strategy == StrategyRational {
		if cfg.Rational == nil || cfg.Rational.Honest == nil || cfg.Rational.Guess == nil {
			return nil, errors.New("protocol: rational worker needs a RationalBehaviour with both answer streams")
		}
	} else if cfg.AnswerFn == nil && cfg.Strategy != StrategyCopyCommit {
		return nil, errors.New("protocol: worker needs an AnswerFn")
	}
	return &Worker{
		Addr:       cfg.Addr,
		chain:      cfg.Chain,
		store:      cfg.Store,
		g:          cfg.Group,
		rand:       cfg.Rand,
		contractID: cfg.ContractID,
		strategy:   cfg.Strategy,
		answerFn:   cfg.AnswerFn,
		rational:   cfg.Rational,
		obs:        contract.NewObserver(cfg.Chain, cfg.ContractID),
	}, nil
}

// Step advances the worker one clock round, submitting whatever
// transactions are due straight to the chain.
func (w *Worker) Step() error {
	txs, err := w.StepTxs()
	if err != nil {
		return err
	}
	for _, tx := range txs {
		if err := w.chain.Submit(tx); err != nil {
			return err
		}
	}
	return nil
}

// Prepare resolves the worker's plaintext answers ahead of its commit, if
// one is due. It exists for harnesses that run many workers' StepTxs
// concurrently: answer models may share a single seeded rng across workers
// (package worker documents reproducibility given a seeded rng), so the
// rng-consuming answering step must run sequentially in worker order —
// call Prepare on each worker in order, then fan out StepTxs, which picks up
// the prepared vector and performs only per-worker crypto. Prepare is
// optional: an unprepared StepTxs resolves the answers itself.
func (w *Worker) Prepare() error {
	if w.committed || w.preparedAnswers != nil || w.strategy == StrategyCopyCommit {
		return nil
	}
	if w.strategy != StrategyRational && w.answerFn == nil {
		return nil
	}
	view, err := w.obs.Refresh()
	if err != nil {
		return err
	}
	if view.Published == nil {
		return nil
	}
	fn := w.answerFn
	if w.strategy == StrategyRational {
		if fn = w.rationalAnswerFn(view.Published); fn == nil {
			return nil // the utility calculus says abstain
		}
	}
	questions, err := w.fetchQuestions(view.Published)
	if err != nil {
		// The content is not (yet) in off-chain storage, or fails its
		// integrity check against the on-chain digest — e.g. a requester
		// withholding publication. A real worker waits and retries; it
		// never commits to questions it could not verify.
		return nil
	}
	w.preparedAnswers = fn(questions, view.Published.RangeSize)
	return nil
}

// rationalAnswerFn latches the rational worker's one-time decision under
// the posted terms and returns the answer stream it plays (nil when it
// abstains). The decision is pure arithmetic over on-chain terms and the
// private profile, so every harness — and every parallelism level —
// computes the same choice at the same observation point.
func (w *Worker) rationalAnswerFn(params *contract.PublishMsg) AnswerFn {
	if !w.decided {
		p := w.rational.Profile.Params(params)
		w.choice = incentive.Decide(p, w.rational.Profile.Accuracy, w.rational.Profile.EffortCost)
		w.decided = true
	}
	switch w.choice {
	case incentive.ChoiceGuess:
		return w.rational.Guess
	case incentive.ChoiceHonest:
		return w.rational.Honest
	default:
		return nil
	}
}

// StepTxs advances the worker one clock round and returns the transactions
// it wants mined, without submitting them. The split lets the simulation
// harness run every worker's off-chain computation (answering, encrypting,
// committing) concurrently and then submit the returned transactions in a
// fixed worker order, keeping the chain's transaction stream — and therefore
// the whole run — deterministic. StepTxs only reads mined chain state
// (receipts and events), never the mempool, so workers observe identical
// views regardless of execution order within a round.
func (w *Worker) StepTxs() ([]*chain.Tx, error) {
	view, err := w.obs.Refresh()
	if err != nil {
		return nil, err
	}
	if view.Published == nil {
		return nil, nil
	}
	if !w.committed {
		return w.commitTxs(view)
	}
	if !w.revealed && view.CommittedRound >= 0 {
		round := w.chain.Round()
		if round > view.CommittedRound+contract.RevealRounds {
			return nil, nil // window missed
		}
		if w.strategy == StrategyReplayReveal {
			// Replay the first reveal transcript another worker landed
			// on-chain, byte for byte. It cannot open this worker's own
			// commitment, so the contract must revert it.
			for _, sub := range view.Submissions {
				if sub.Worker == w.Addr {
					continue
				}
				w.revealed = true
				return []*chain.Tx{{
					From:     w.Addr,
					Contract: w.contractID,
					Method:   contract.MethodReveal,
					Data:     sub.Data,
				}}, nil
			}
			return nil, nil // nothing to replay yet; keep watching
		}
		if w.reveal != nil {
			w.revealed = true
			return []*chain.Tx{{
				From:     w.Addr,
				Contract: w.contractID,
				Method:   contract.MethodReveal,
				Data:     w.reveal.Marshal(),
			}}, nil
		}
	}
	return nil, nil
}

// commitTxs runs phase 2-a: fetch the task content, verify it against the
// on-chain digest, answer, encrypt, and commit.
func (w *Worker) commitTxs(view *contract.View) ([]*chain.Tx, error) {
	params := view.Published

	if w.strategy == StrategyCopyCommit {
		// Copy the first commitment observed in any earlier transaction.
		for _, rcpt := range w.chain.Receipts() {
			if rcpt.Tx.Contract != w.contractID || rcpt.Tx.Method != contract.MethodCommit {
				continue
			}
			if rcpt.Tx.From == w.Addr || rcpt.Reverted() {
				continue
			}
			w.committed = true
			return []*chain.Tx{{
				From:     w.Addr,
				Contract: w.contractID,
				Method:   contract.MethodCommit,
				Data:     rcpt.Tx.Data, // byte-identical copy
			}}, nil
		}
		return nil, nil // nothing to copy yet; stay in commit phase
	}

	if w.strategy == StrategyLateCommit &&
		w.chain.Round() < view.PublishedRound+params.CommitRounds {
		// Wait for the last admissible round: the commit lands exactly on
		// the phase boundary (any one-round delay pushes it past the
		// deadline and it reverts).
		return nil, nil
	}

	fn := w.answerFn
	if w.strategy == StrategyRational {
		if fn = w.rationalAnswerFn(params); fn == nil {
			// Abstain: negative expected utility at the posted reward, so
			// the rational worker never commits (and, if the quota depends
			// on it, the task starves and cancels).
			return nil, nil
		}
	}
	answers := w.preparedAnswers
	w.preparedAnswers = nil
	if answers == nil {
		questions, err := w.fetchQuestions(params)
		if err != nil {
			// Content unavailable or failing its integrity check: wait and
			// retry next round rather than committing blind (see Prepare).
			return nil, nil
		}
		answers = fn(questions, params.RangeSize)
	}
	if len(answers) != params.N {
		return nil, fmt.Errorf("protocol: behaviour produced %d answers, want %d", len(answers), params.N)
	}
	h, err := w.g.Unmarshal(params.PubKey)
	if err != nil {
		return nil, fmt.Errorf("protocol: requester key: %w", err)
	}
	pk := &elgamal.PublicKey{Group: w.g, H: h}

	// Per-question parallel encryption (randomness drawn sequentially from
	// this worker's private stream inside EncryptAnswers).
	encrypted, err := poqoea.EncryptAnswers(pk, answers, w.rand)
	if err != nil {
		return nil, fmt.Errorf("protocol: encrypting answers: %w", err)
	}
	cts := make([][]byte, params.N)
	for i, ct := range encrypted {
		cts[i] = elgamal.MarshalCiphertext(w.g, ct)
	}
	key, err := commit.NewKey(w.rand)
	if err != nil {
		return nil, fmt.Errorf("protocol: commitment key: %w", err)
	}
	reveal := &contract.RevealMsg{Cts: cts, Key: key}
	comm := commit.Commit(reveal.CommitmentPayload(), key)

	w.committed = true
	switch w.strategy {
	case StrategyNoReveal, StrategyReplayReveal:
		// Never opens its own commitment (the replayer opens someone
		// else's transcript instead — see StepTxs).
	case StrategyGarbledReveal:
		// Keep an opening whose first ciphertext byte is flipped: the
		// commitment was computed over the honest payload, so the on-chain
		// Open must fail and the reveal reverts.
		garbled := make([][]byte, len(reveal.Cts))
		for i, ct := range reveal.Cts {
			garbled[i] = append([]byte{}, ct...)
		}
		garbled[0][0] ^= 0xFF
		w.reveal = &contract.RevealMsg{Cts: garbled, Key: reveal.Key}
	default:
		w.reveal = reveal
	}
	msg := &contract.CommitMsg{Comm: comm}
	txs := []*chain.Tx{{
		From:     w.Addr,
		Contract: w.contractID,
		Method:   contract.MethodCommit,
		Data:     msg.Marshal(),
	}}
	if w.strategy == StrategyEquivocate {
		// The double-commit equivocation: a second, different commitment
		// to the same payload (fresh blinding key) lands in the same
		// round. The contract must accept exactly one; the kept opening
		// matches the first, so a reordering adversary deciding the race
		// can strand it.
		key2, err := commit.NewKey(w.rand)
		if err != nil {
			return nil, fmt.Errorf("protocol: second commitment key: %w", err)
		}
		msg2 := &contract.CommitMsg{Comm: commit.Commit(reveal.CommitmentPayload(), key2)}
		txs = append(txs, &chain.Tx{
			From:     w.Addr,
			Contract: w.contractID,
			Method:   contract.MethodCommit,
			Data:     msg2.Marshal(),
		})
	}
	return txs, nil
}

// fetchQuestions retrieves the task content from off-chain storage and
// integrity-checks it against the on-chain digest committed at publish.
func (w *Worker) fetchQuestions(params *contract.PublishMsg) ([]task.Question, error) {
	content, err := w.store.Get(swarm.Digest(params.QuestionsDigest))
	if err != nil {
		return nil, fmt.Errorf("protocol: fetching task content: %w", err)
	}
	questions, err := task.UnmarshalQuestions(content)
	if err != nil {
		return nil, fmt.Errorf("protocol: decoding task content: %w", err)
	}
	if len(questions) != params.N {
		return nil, fmt.Errorf("protocol: content has %d questions, chain says %d", len(questions), params.N)
	}
	return questions, nil
}
