// Package contract implements the HIT smart contract — the executable form
// of the paper's contract functionality C_hit (Fig. 4). The contract runs on
// the simulated chain (package chain) with EVM-calibrated gas metering and
// drives the four protocol phases:
//
//  1. publish: the requester posts (N, B, K, range, Θ, h, comm_gs), and the
//     contract freezes her budget B on the ledger;
//  2. commit: workers submit answer commitments; duplicates are rejected
//     (defeating commitment copy-paste) and the phase closes when K
//     distinct workers committed;
//  3. reveal: committed workers open their commitments to ciphertext
//     vectors; the contract stores one keccak256 hash per ciphertext and
//     emits the ciphertexts as event logs (the paper's on-chain
//     optimization (ii));
//  4. evaluate: after the requester publicly opens the golden-standard
//     commitment (audit property), she may reject a worker either with an
//     out-of-range VPKE opening or with a PoQoEA proof that the worker's
//     quality is below Θ. Any invalid rejection attempt pays the worker
//     immediately; silence pays every revealed worker at finalize. The
//     unspent remainder of the deposit returns to the requester.
//
// The fairness logic is deliberately asymmetric, mirroring Fig. 4: the
// contract never takes the requester's word — a worker loses payment only
// to a cryptographically valid rejection.
package contract

import (
	"errors"
	"fmt"

	"dragoon/internal/chain"
	"dragoon/internal/commit"
	"dragoon/internal/elgamal"
	"dragoon/internal/gas"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/poqoea"
	"dragoon/internal/task"
	"dragoon/internal/vpke"
	"dragoon/internal/wire"
)

// Protocol timing constants, in clock rounds. The adversary may delay any
// message by at most one round (the synchrony bound), so each window leaves
// honest messages room to land: workers reveal in the first round after the
// commit phase closes (+1 adversarial delay), and the requester first
// confirms her golden opening on-chain before sending evaluations
// (+1 delay each).
const (
	// RevealRounds is the width of the reveal window after commits close.
	RevealRounds = 2
	// EvalRounds is the width of the evaluation window after reveals close.
	EvalRounds = 4
)

// DeployCodeSize is the deployed bytecode size (in bytes) charged at
// deployment, calibrated so that the publish row of Table III matches the
// paper's measured Solidity deployment (~1293k gas including the publish
// transaction).
const DeployCodeSize = 5670

// Gas-calibration constants for EVM execution overhead that the structural
// charges (storage, calldata, precompiles, logs, keccak) do not cover:
// Solidity's per-iteration memory management and ABI decoding. They are
// tuned so Table III's per-row gas matches the paper's measured contract:
// `go run ./cmd/benchtables -table 3` prints that run's gas per method, and
// TestTableIIIGasBands holds its rows within the paper's bands.
const (
	// ciphertextOverhead is charged per ciphertext processed in reveal.
	ciphertextOverhead = 2150
	// evaluationBaseOverhead is charged once per evaluate/outrange call
	// (ABI decoding and proof-struct handling).
	evaluationBaseOverhead = 8_000
	// wrongEntryOverhead is charged per wrong-answer entry verified in
	// evaluate/outrange.
	wrongEntryOverhead = 500
)

// Phase enumerates the contract lifecycle.
type Phase uint8

// Contract phases.
const (
	PhaseCommit Phase = iota + 1
	PhaseReveal
	PhaseEvaluate
	PhaseDone
	PhaseCancelled
)

// String returns a human-readable phase name.
func (p Phase) String() string {
	switch p {
	case PhaseCommit:
		return "commit"
	case PhaseReveal:
		return "reveal"
	case PhaseEvaluate:
		return "evaluate"
	case PhaseDone:
		return "done"
	case PhaseCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Worker decision markers.
const (
	decisionPaid     = 1
	decisionRejected = 2
)

// HIT is the contract object. One instance serves one task. The struct
// itself is stateless between calls: all state lives in the chain's
// journaled storage, so reverts roll back cleanly.
type HIT struct {
	group group.Group
}

// New returns a HIT contract over the given group backend (the backend the
// requester's public key lives in).
func New(g group.Group) *HIT { return &HIT{group: g} }

var _ chain.Contract = (*HIT)(nil)

// Execute dispatches a transaction to the contract (implements
// chain.Contract).
func (h *HIT) Execute(env *chain.Env, from chain.Address, method string, data []byte) error {
	switch method {
	case MethodPublish:
		return h.publish(env, from, data)
	case MethodCommit:
		return h.commit(env, from, data)
	case MethodReveal:
		return h.reveal(env, from, data)
	case MethodGolden:
		return h.golden(env, from, data)
	case MethodOutrange:
		return h.outrange(env, from, data)
	case MethodEvaluate:
		return h.evaluate(env, from, data)
	case MethodFinalize:
		return h.finalize(env)
	default:
		return fmt.Errorf("contract: unknown method %q", method)
	}
}

// --- storage helpers ---------------------------------------------------------

func storeUint(env *chain.Env, key string, v uint64) {
	w := wire.NewWriter()
	w.WriteUint(v)
	env.StoreSet(key, w.Bytes())
}

func loadUint(env *chain.Env, key string) (uint64, bool) {
	raw, ok := env.StoreGet(key)
	if !ok {
		return 0, false
	}
	v, err := wire.NewReader(raw).ReadUint()
	if err != nil {
		return 0, false
	}
	return v, true
}

// loadParams returns the published task parameters, or an error if the task
// has not been published.
func (h *HIT) loadParams(env *chain.Env) (*PublishMsg, error) {
	raw, ok := env.StoreGet("params")
	if !ok {
		return nil, errors.New("contract: task not published")
	}
	return UnmarshalPublish(raw)
}

func (h *HIT) requester(env *chain.Env) chain.Address {
	raw, _ := env.StoreGet("requester")
	return chain.Address(raw)
}

// --- phase 1: publish --------------------------------------------------------

func (h *HIT) publish(env *chain.Env, from chain.Address, data []byte) error {
	if _, ok := env.StoreGet("params"); ok {
		return errors.New("contract: already published")
	}
	msg, err := UnmarshalPublish(data)
	if err != nil {
		return err
	}
	if msg.N <= 0 || msg.Workers <= 0 || msg.RangeSize <= 1 {
		return errors.New("contract: invalid task parameters")
	}
	if msg.Threshold < 0 {
		return errors.New("contract: negative threshold")
	}
	if RewardOf(msg) == 0 {
		return errors.New("contract: budget does not cover one reward")
	}
	if msg.CommitRounds <= 0 {
		return errors.New("contract: commit window must be positive")
	}
	if _, err := h.group.Unmarshal(msg.PubKey); err != nil {
		return fmt.Errorf("contract: invalid requester public key: %w", err)
	}
	// Freeze the budget — the "(freeze, Pi, B)" call of Fig. 4; on nofund
	// the publish reverts.
	if err := env.Freeze(ledger.AccountID(from), msg.Budget); err != nil {
		return err
	}
	env.StoreSet("params", data)
	env.StoreSet("requester", []byte(from))
	storeUint(env, "publishRound", uint64(env.Round()))
	storeUint(env, "ncommits", 0)
	env.Emit(EventPublished, 1, data)
	return nil
}

// --- phase 2-a: commit -------------------------------------------------------

func (h *HIT) commit(env *chain.Env, from chain.Address, data []byte) error {
	params, err := h.loadParams(env)
	if err != nil {
		return err
	}
	if _, closed := loadUint(env, "commitDone"); closed {
		return errors.New("contract: commit phase closed")
	}
	pubRound, ok := loadUint(env, "publishRound")
	if !ok {
		return errors.New("contract: publish round missing")
	}
	if env.Round() > int(pubRound)+params.CommitRounds {
		return errors.New("contract: commit deadline passed")
	}
	msg, err := UnmarshalCommit(data)
	if err != nil {
		return err
	}
	if _, dup := env.StoreGet("comm:" + string(from)); dup {
		return errors.New("contract: worker already committed")
	}
	// Reject duplicated commitments: the anti-copy-paste check of Fig. 4
	// ("if (Wj,·) ∉ comms and (·, comm_cj) ∉ comms").
	dupKey := "dup:" + string(msg.Comm[:])
	if _, dup := env.StoreGet(dupKey); dup {
		return errors.New("contract: duplicate commitment rejected")
	}
	n, _ := loadUint(env, "ncommits")
	env.StoreSet("comm:"+string(from), msg.Comm[:])
	env.StoreSet(dupKey, []byte{1})
	env.StoreSet(fmt.Sprintf("worker:%d", n), []byte(from))
	storeUint(env, "ncommits", n+1)
	if int(n+1) == params.Workers {
		storeUint(env, "commitDone", uint64(env.Round()))
		env.Emit(EventCommitted, 1, nil)
	}
	return nil
}

// --- phase 2-b: reveal -------------------------------------------------------

// revealWindow returns the (start, end] rounds of the reveal window, valid
// only once commits closed.
func revealWindow(env *chain.Env) (int, int, bool) {
	done, ok := loadUint(env, "commitDone")
	if !ok {
		return 0, 0, false
	}
	return int(done), int(done) + RevealRounds, true
}

func (h *HIT) reveal(env *chain.Env, from chain.Address, data []byte) error {
	params, err := h.loadParams(env)
	if err != nil {
		return err
	}
	start, end, ok := revealWindow(env)
	if !ok {
		return errors.New("contract: reveal before commits closed")
	}
	if env.Round() <= start || env.Round() > end {
		return fmt.Errorf("contract: reveal outside window (%d,%d]", start, end)
	}
	commRaw, ok := env.StoreGet("comm:" + string(from))
	if !ok {
		return errors.New("contract: reveal from non-committed worker")
	}
	if _, done := env.StoreGet("revealed:" + string(from)); done {
		return errors.New("contract: worker already revealed")
	}
	msg, err := UnmarshalReveal(data)
	if err != nil {
		return err
	}
	if len(msg.Cts) != params.N {
		return fmt.Errorf("contract: %d ciphertexts, want %d", len(msg.Cts), params.N)
	}
	var comm commit.Commitment
	copy(comm[:], commRaw)
	payload := 0
	for _, ct := range msg.Cts {
		payload += len(ct)
	}
	env.ChargeMemory(payload)
	// Open(comm_cj, cj, keyj) = 1, charged as an on-chain keccak over
	// cj ‖ keyj.
	env.UseGas(gas.KeccakCost(payload + commit.KeySize))
	if msg.Commitment(msg.Key) != comm {
		return errors.New("contract: commitment opening failed")
	}
	// Store one hash per ciphertext — evaluation transactions later
	// re-supply only the few ciphertexts they reference and the contract
	// checks them against these hashes (on-chain optimization (ii)).
	for i, ct := range msg.Cts {
		hash := env.Keccak(ct)
		env.StoreSet(fmt.Sprintf("cth:%s:%d", from, i), hash[:])
		env.UseGas(ciphertextOverhead)
	}
	env.StoreSet("revealed:"+string(from), []byte{1})
	// The ciphertexts themselves are only event data, never contract
	// storage — clients (the requester, auditors) read them from the log.
	event := make([]byte, 0, len(from)+1+len(data))
	event = append(append(append(event, from...), 0), data...)
	env.Emit(EventRevealed, 2, event)
	return nil
}

// --- phase 3: evaluate -------------------------------------------------------

// evalWindow returns the (start, end] rounds of the evaluation window.
func evalWindow(env *chain.Env) (int, int, bool) {
	_, revealEnd, ok := revealWindow(env)
	if !ok {
		return 0, 0, false
	}
	return revealEnd, revealEnd + EvalRounds, true
}

func (h *HIT) inEvalWindow(env *chain.Env) error {
	start, end, ok := evalWindow(env)
	if !ok {
		return errors.New("contract: evaluation before reveals")
	}
	if env.Round() <= start || env.Round() > end {
		return fmt.Errorf("contract: evaluation outside window (%d,%d]", start, end)
	}
	return nil
}

func (h *HIT) golden(env *chain.Env, from chain.Address, data []byte) error {
	params, err := h.loadParams(env)
	if err != nil {
		return err
	}
	if from != h.requester(env) {
		return errors.New("contract: golden opening not from requester")
	}
	if err := h.inEvalWindow(env); err != nil {
		return err
	}
	if _, done := env.StoreGet("golden"); done {
		return errors.New("contract: golden standards already revealed")
	}
	msg, err := UnmarshalGoldenMsg(data)
	if err != nil {
		return err
	}
	// Open(comm_gs, gs, key) = 1, charged as an on-chain keccak over
	// gs ‖ key.
	env.UseGas(gas.KeccakCost(len(msg.Golden) + commit.KeySize))
	if !commit.Open(params.CommGolden, msg.Golden, msg.Key) {
		return errors.New("contract: golden commitment opening failed")
	}
	// Structural validation so later evaluations can trust the statement.
	g, err := task.UnmarshalGolden(msg.Golden)
	if err != nil {
		return err
	}
	if err := g.Statement(params.RangeSize).Validate(params.N); err != nil {
		return err
	}
	env.StoreSet("golden", msg.Golden)
	// The opening becomes public — the audit property ("the golden
	// standards become public auditable once the HIT is done").
	env.Emit(EventGoldenRevealed, 1, msg.Golden)
	return nil
}

// payWorker pays the per-answer reward and records the decision.
func (h *HIT) payWorker(env *chain.Env, params *PublishMsg, worker chain.Address) error {
	if err := env.Pay(ledger.AccountID(worker), RewardOf(params)); err != nil {
		return err
	}
	env.StoreSet("decided:"+string(worker), []byte{decisionPaid})
	env.Emit(EventPaid, 2, []byte(worker))
	return nil
}

// rejectWorker records a cryptographically justified rejection.
func (h *HIT) rejectWorker(env *chain.Env, worker chain.Address, reason string) {
	env.StoreSet("decided:"+string(worker), []byte{decisionRejected})
	env.Emit(EventRejected, 2, append([]byte(worker+"\x00"), reason...))
}

// checkEvaluable verifies the shared preconditions of outrange/evaluate:
// requester-only, inside the window, golden revealed, target worker
// revealed and undecided. It returns the golden statement.
func (h *HIT) checkEvaluable(env *chain.Env, from chain.Address, worker chain.Address, params *PublishMsg) (poqoea.Statement, error) {
	if from != h.requester(env) {
		return poqoea.Statement{}, errors.New("contract: evaluation not from requester")
	}
	if err := h.inEvalWindow(env); err != nil {
		return poqoea.Statement{}, err
	}
	goldenRaw, ok := env.StoreGet("golden")
	if !ok {
		return poqoea.Statement{}, errors.New("contract: golden standards not revealed")
	}
	if _, ok := env.StoreGet("revealed:" + string(worker)); !ok {
		return poqoea.Statement{}, errors.New("contract: worker did not reveal")
	}
	if _, decided := env.StoreGet("decided:" + string(worker)); decided {
		return poqoea.Statement{}, errors.New("contract: worker already decided")
	}
	g, err := task.UnmarshalGolden(goldenRaw)
	if err != nil {
		return poqoea.Statement{}, err
	}
	return g.Statement(params.RangeSize), nil
}

// checkStoredCiphertext verifies a re-supplied ciphertext against the hash
// stored at reveal time.
func (h *HIT) checkStoredCiphertext(env *chain.Env, worker chain.Address, qIdx int, ct []byte) error {
	stored, ok := env.StoreGet(fmt.Sprintf("cth:%s:%d", worker, qIdx))
	if !ok {
		return fmt.Errorf("contract: no stored ciphertext hash for %s[%d]", worker, qIdx)
	}
	digest := env.Keccak(ct)
	if string(digest[:]) != string(stored) {
		return errors.New("contract: ciphertext does not match stored hash")
	}
	return nil
}

// outrange handles the requester's claim that answer QIdx of a worker is
// outside the option range. Per Fig. 4, a bogus claim (revealed element in
// range, or invalid proof) pays the worker on the spot.
func (h *HIT) outrange(env *chain.Env, from chain.Address, data []byte) error {
	params, err := h.loadParams(env)
	if err != nil {
		return err
	}
	msg, err := UnmarshalOutrange(data)
	if err != nil {
		return err
	}
	if _, err := h.checkEvaluable(env, from, msg.Worker, params); err != nil {
		return err
	}
	if msg.QIdx < 0 || msg.QIdx >= params.N {
		return fmt.Errorf("contract: question index %d out of range", msg.QIdx)
	}
	if err := h.checkStoredCiphertext(env, msg.Worker, msg.QIdx, msg.Ct); err != nil {
		return err
	}
	env.UseGas(evaluationBaseOverhead + wrongEntryOverhead)

	mg := chain.NewMeteredGroup(env, h.group)
	pk, err := h.publicKey(mg, params)
	if err != nil {
		return err
	}
	element, err := mg.Unmarshal(msg.Element)
	if err != nil {
		return fmt.Errorf("contract: outrange element: %w", err)
	}
	ct, err := decodeCiphertext(mg, msg.Ct)
	if err != nil {
		return err
	}
	proof, err := decodeProof(mg, msg.Proof)
	if err != nil {
		return err
	}
	// a(i,j) ∈ range ⇒ pay: the revealed element must NOT be g^v for any
	// v in range. The scan runs against the process-wide short-log table
	// (built once per range size over the raw group) while the gas charged
	// is the exact operation count a metered uncached scan would pay — one
	// ECADD per candidate step plus the giant-step ECMUL, per LookupOps.
	table := elgamal.SharedShortLogTable(h.group, params.RangeSize)
	_, inRange, ops := table.LookupOps(element)
	env.UseGas(ops.Adds*gas.EcAdd + ops.Muls*gas.EcMul)
	if inRange {
		return h.payWorker(env, params, msg.Worker)
	}
	if !vpke.VerifyElement(pk, element, ct, proof) {
		return h.payWorker(env, params, msg.Worker)
	}
	h.rejectWorker(env, msg.Worker, "outrange")
	return nil
}

// evaluate handles the requester's PoQoEA quality claim. Per Fig. 4:
// χ ≥ Θ pays immediately; an invalid proof pays immediately; only a valid
// proof of χ < Θ rejects.
func (h *HIT) evaluate(env *chain.Env, from chain.Address, data []byte) error {
	params, err := h.loadParams(env)
	if err != nil {
		return err
	}
	msg, err := UnmarshalEvaluate(data)
	if err != nil {
		return err
	}
	st, err := h.checkEvaluable(env, from, msg.Worker, params)
	if err != nil {
		return err
	}
	if msg.Chi >= params.Threshold {
		// The requester concedes the quality bar is met.
		return h.payWorker(env, params, msg.Worker)
	}
	env.UseGas(evaluationBaseOverhead)

	mg := chain.NewMeteredGroup(env, h.group)
	pk, err := h.publicKey(mg, params)
	if err != nil {
		return err
	}
	// Rebuild a sparse ciphertext vector holding only the referenced
	// golden positions, each checked against its stored hash.
	cts := make([]elgamal.Ciphertext, params.N)
	pf := &poqoea.Proof{}
	valid := true
	seen := make(map[int]bool, len(msg.Wrong))
	for _, e := range msg.Wrong {
		if e.QIdx < 0 || e.QIdx >= params.N || seen[e.QIdx] {
			valid = false
			break
		}
		seen[e.QIdx] = true
		if err := h.checkStoredCiphertext(env, msg.Worker, e.QIdx, e.Ct); err != nil {
			valid = false
			break
		}
		env.UseGas(wrongEntryOverhead)
		ct, err := decodeCiphertext(mg, e.Ct)
		if err != nil {
			valid = false
			break
		}
		cts[e.QIdx] = ct
		wa := poqoea.WrongAnswer{Index: e.QIdx}
		if e.InRange {
			wa.Plain = elgamal.Plaintext{InRange: true, Value: e.Value}
		} else {
			element, err := mg.Unmarshal(e.Element)
			if err != nil {
				valid = false
				break
			}
			wa.Plain = elgamal.Plaintext{Element: element}
		}
		proof, err := decodeProof(mg, e.Proof)
		if err != nil {
			valid = false
			break
		}
		wa.Proof = proof
		pf.Wrong = append(pf.Wrong, wa)
	}
	if valid {
		// One goroutine, in revelation order, stopping at the first
		// invalid one: the metered group charges this transaction's Env,
		// and the EVM never runs the checks after a failing revelation.
		valid = poqoea.VerifySequential(pk, cts, msg.Chi, pf, st)
	}
	if !valid {
		// VerifyQuality = 0 ⇒ pay (Fig. 4): a false report costs the
		// requester the reward.
		return h.payWorker(env, params, msg.Worker)
	}
	h.rejectWorker(env, msg.Worker, "quality below threshold")
	return nil
}

// publicKey reconstructs the requester's ElGamal public key over the given
// (possibly metered) group view.
func (h *HIT) publicKey(g group.Group, params *PublishMsg) (*elgamal.PublicKey, error) {
	el, err := g.Unmarshal(params.PubKey)
	if err != nil {
		return nil, fmt.Errorf("contract: decoding public key: %w", err)
	}
	return &elgamal.PublicKey{Group: g, H: el}, nil
}

// --- finalize -----------------------------------------------------------------

// finalize settles the task once the evaluation window closed: every
// revealed, undecided worker is paid (the "no message from R" default of
// Fig. 2/4), and the unspent escrow returns to the requester. If the commit
// phase never filled before its deadline, the whole deposit is refunded.
func (h *HIT) finalize(env *chain.Env) error {
	params, err := h.loadParams(env)
	if err != nil {
		return err
	}
	if _, done := env.StoreGet("finalized"); done {
		return errors.New("contract: already finalized")
	}
	requester := h.requester(env)
	reward := RewardOf(params)

	if _, committed := loadUint(env, "commitDone"); !committed {
		// Defense-in-depth: publish writes "params" and "publishRound" in
		// one journaled call, so the key cannot be absent here — but if
		// storage were ever partially written, defaulting to round 0 would
		// treat the commit deadline as long past and mis-gate an early
		// cancellation, so a missing key fails loudly instead.
		pubRound, ok := loadUint(env, "publishRound")
		if !ok {
			return errors.New("contract: publish round missing")
		}
		if env.Round() <= int(pubRound)+params.CommitRounds {
			return errors.New("contract: commit phase still open")
		}
		// Task never filled: cancel and refund the full deposit.
		if err := env.Pay(ledger.AccountID(requester), params.Budget); err != nil {
			return err
		}
		env.StoreSet("finalized", []byte{byte(PhaseCancelled)})
		env.Emit(EventCancelled, 1, nil)
		return nil
	}

	_, evalEnd, _ := evalWindow(env)
	if env.Round() <= evalEnd {
		return errors.New("contract: evaluation window still open")
	}

	var spent ledger.Amount
	for i := 0; i < params.Workers; i++ {
		addrRaw, ok := env.StoreGet(fmt.Sprintf("worker:%d", i))
		if !ok {
			continue
		}
		worker := chain.Address(addrRaw)
		decision, decided := env.StoreGet("decided:" + string(worker))
		if decided {
			if decision[0] == decisionPaid {
				spent += reward
			}
			continue
		}
		if _, revealed := env.StoreGet("revealed:" + string(worker)); !revealed {
			continue // c_j = ⊥: no payment
		}
		if err := h.payWorker(env, params, worker); err != nil {
			return err
		}
		spent += reward
	}
	if refund := params.Budget - spent; refund > 0 {
		if err := env.Pay(ledger.AccountID(requester), refund); err != nil {
			return err
		}
	}
	env.StoreSet("finalized", []byte{byte(PhaseDone)})
	env.Emit(EventFinalized, 1, nil)
	return nil
}

// RewardOf returns B/K, the reward one worker earns under published params.
func RewardOf(params *PublishMsg) ledger.Amount {
	return params.Budget / ledger.Amount(params.Workers)
}

// The calibration constants above were tuned against the EIP-1108 prices in
// package gas; this compile-time assertion flags a schedule change that
// would invalidate them.
var _ = [1]struct{}{}[gas.EcMul-6000]
