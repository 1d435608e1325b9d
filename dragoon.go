// Package dragoon is a Go implementation of Dragoon, the practical private
// decentralized Human Intelligence Task (HIT) protocol of Lu, Tang and Wang
// (IEEE ICDCS 2020). It provides:
//
//   - the protocol cryptography: exponential ElGamal over BN254 G1,
//     verifiable decryption (VPKE), and the paper's core contribution —
//     PoQoEA, the special-purpose proof of the quality of encrypted
//     answers that replaces generic zk-SNARKs;
//   - a simulated Ethereum-like blockchain with EIP-1108-calibrated gas
//     metering, the HIT smart contract (commit–reveal–evaluate with
//     pay-by-default fairness), and off-chain requester/worker clients;
//   - an end-to-end simulation harness with pluggable worker behaviours
//     and network adversaries, plus the executable ideal functionality
//     F_hit for differential security testing;
//   - a full Groth16 zk-SNARK over BN254 as the "generic ZKP" baseline the
//     paper compares against.
//
// The exported surface of this package is a facade over the internal
// packages, re-exported through type aliases so downstream users need only
// import "dragoon".
//
// Quick start (see examples/quickstart for the runnable version):
//
//	inst, _ := dragoon.NewImageNetTask(4000, rng)
//	res, _ := dragoon.Simulate(dragoon.SimulationConfig{
//	    Instance: inst,
//	    Group:    dragoon.BN254(),
//	    Workers:  []dragoon.WorkerModel{dragoon.PerfectWorker("w0", inst.GroundTruth), ...},
//	})
//
// # Marketplace
//
// SimulateMarketplace runs M concurrent HIT contracts on ONE shared chain —
// the paper's deployment model, where one requester key pair serves all of
// a requester's tasks (§VI) and a real chain hosts many instances at once:
//
//	res, _ := dragoon.SimulateMarketplace(dragoon.MarketplaceConfig{
//	    Tasks:      []dragoon.MarketplaceTask{{Instance: instA}, {Instance: instB}},
//	    Group:      dragoon.BN254(),
//	    Population: pop,       // shared workers; MarketplaceTask.Enroll picks subsets
//	    SharedKey:  key,       // optional §VI key reuse across every requester
//	    Seed:       7,
//	})
//
// Each round mines every task's transactions interleaved under one
// scheduler (adversarial or FIFO), each task's own requester client drives
// its contract, and a shared worker population enrolls in any subset of
// tasks. Contract storage and event logs are namespaced per contract and
// every observer polls a per-contract event cursor, so tasks cannot observe
// each other's state and polling cost does not grow with other tasks'
// traffic. With an honest scheduler a task's payments, gas and harvested
// answers are identical to running it alone; Simulate is exactly the M=1
// case of the marketplace.
//
// # Streaming service
//
// SimulateMarketplace is a batch: the task set is fixed before the first
// round mines. NewService lifts the same marketplace onto a long-lived
// chain — tasks are submitted while the chain mines, admitted at the next
// round boundary, settled individually through Poll, and the service keeps
// its state bounded by pruning settled contracts and trimming history to a
// sliding window. A task streamed through a live service produces
// byte-for-byte the transcript it would produce in a batch run with the same
// seed and neighbours, and a Service can be snapshotted between rounds and
// restored to resume identically. SimulateContext and
// SimulateMarketplaceContext are the context-aware batch entry points,
// cancelling at round boundaries. See docs/SERVICE.md.
//
// # Parallelism
//
// The crypto hot paths — requester decryption, PoQoEA proving and (batch)
// verification, ciphertext decoding, the multi-scalar multiplications,
// Groth16 proving (per-wire MSMs and the QAP quotient) and pairing-product
// verification — run on a bounded work pool (internal/parallel) whose size
// is process-wide: runtime.NumCPU() unless parallel.SetDefaultWorkers
// changes it. Options.Parallelism — embedded in SimulationConfig,
// MarketplaceConfig, ScenarioOptions and ServiceConfig — does not resize
// that pool. It bounds three fan-outs of its own run: the per-round
// computation of the simulated workers, how many shards mine a round at
// once, and the optimistic block executor, which it also switches on by
// default when it allows more than one worker (see below). Parallelism 1
// steps the workers and mines the shards one at a time, but the kernels
// inside a step still use the process-wide pool. The Options struct
// consolidates every per-run knob: Parallelism, BatchVerify and
// ParallelExec.
//
// Parallel execution is deterministic: results are combined in input order
// and randomness is always drawn sequentially from the caller's stream
// before the fan-out, so a seeded run produces byte-for-byte identical
// transcripts, transactions and gas at any parallelism level. Simulated
// workers compute concurrently but their transactions apply to the chain
// in a fixed worker order, preserving the differential tests against the
// ideal functionality F_hit.
//
// # Optimistic parallel block execution
//
// The simulated chain itself executes each mined round's transactions with
// a Block-STM-style optimistic engine when the worker pool is larger than
// one: the whole schedule runs speculatively in parallel against the
// pre-round state while every call's storage reads, existence checks and
// ledger balance/escrow reads are journaled into a read set; each
// transaction is then validated in schedule order against the keys written
// by the transactions committed before it, clean ones commit their
// journals as-is, and conflicting ones are deterministically re-executed.
// Receipts, gas, events and ledger state are byte-identical to sequential
// execution — the adversary-matrix sweep asserts it fingerprint-for-
// fingerprint — so the knob only changes wall-clock time: on-chain
// rejection-proof verification, the dominant per-transaction cost, scales
// with cores just like the off-chain crypto. Per-run tri-state overrides:
// SimulationConfig.ParallelExec / MarketplaceConfig.ParallelExec /
// ScenarioOptions.ParallelExec (> 0 forces the executor on, < 0 forces
// sequential rounds, 0 defaults to on exactly when the effective pool
// exceeds one worker).
//
// # Batch verification
//
// Verification — the requester's single hottest per-question cost — can be
// amortized: Options.BatchVerify > 0 folds independent verification
// equations into ONE multi-scalar multiplication (or one multi-pairing, for
// Groth16) per batch via a random linear combination with transcript-seeded
// exponents. VerifyQualityBatch checks many PoQoEA claims in a single fold,
// the requester client decodes revealed submissions through a batched
// well-formedness pass, and the marketplace re-verifies every rejection
// proof landing in a mined round — across all tasks — in one fold (the
// round auditor). On a failed fold the engine bisects down to per-proof
// verification, so verdicts (who gets paid, who gets slashed) are identical
// to per-proof verification; the adversarial scenario sweep asserts
// byte-identical fingerprints with batching on and off. The knob is
// per-run: SimulationConfig.BatchVerify / MarketplaceConfig.BatchVerify /
// ScenarioOptions.BatchVerify (> 0 on; 0, the default, and < 0 off).
// VerifyQualityBatch always folds.
//
// # Threat model & adversarial scenarios
//
// The paper's security argument (§V) grants the adversary corrupted
// workers, a corrupted requester, and the network: messages may be
// reordered within a round and delayed by at most one round (synchrony
// with a rushing adversary). ScenarioMatrix packages that threat model as
// an executable catalogue, each entry mapping to a claim of the analysis:
//
//   - commitment binding & anti-copy-paste (Fig. 4's duplicate check):
//     "copy-paste-rejected", "copy-paste-starves", "garbled-reveal",
//     "replayed-reveal", "equivocator" — forged, replayed or equivocating
//     commitments and openings are rejected on-chain and only hurt their
//     sender;
//   - answer validity (VPKE) and quality soundness (PoQoEA):
//     "out-of-range", "golden-wrong-rejected" — the requester can reject
//     exactly the submissions she can cryptographically prove unqualified;
//   - requester fairness (Fig. 4's pay-on-invalid-rejection rule):
//     "false-report", "garbled-proof", "silent-requester", "no-golden",
//     "premature-cancel", "withheld-questions" — every way a requester
//     can try to keep both the answers and the money ends with the
//     workers paid or the task cancelled with nobody out of pocket;
//   - window tolerance under the synchrony bound: "rushing",
//     "bounded-delay", "reorder", "censor-worker", "censor-requester",
//     "boundary-reveal", "boundary-evaluation", "late-commit",
//     "late-commit-starved", "random-chaos" — every protocol window
//     admits every honest message even when the adversary delays it the
//     maximum one round, and a message landing past its boundary only
//     forfeits its sender.
//
// Every scenario runs through the real harnesses (Scenario.RunSim,
// Scenario.RunMarket, RunScenarioMatrix for many scenarios on one shared
// chain) and is checked by ScenarioReport.CheckInvariants: funds are
// conserved, every settled escrow drains to zero, honest workers are paid
// on every finalized task (and lose nothing on a cancelled one), and each
// contract's event log forms a monotone phase story with every event
// inside its protocol window. See examples/adversary for the sweep.
package dragoon

import (
	"io"
	"math/rand"

	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/parallel"
	"dragoon/internal/poqoea"
	"dragoon/internal/task"
	"dragoon/internal/vpke"
)

// Parallelism reports the effective process-wide worker pool size.
func Parallelism() int { return parallel.Workers(0) }

// Group is a prime-order cyclic group backend for the protocol crypto.
type Group = group.Group

// BN254 returns the production group backend: the G1 subgroup of BN254
// ("BN-128" in the paper), the same curve the authors deployed over thanks
// to Ethereum's EIP-1108 precompiles.
func BN254() Group { return group.BN254G1() }

// TestGroup returns a small, insecure Schnorr group for fast tests and
// experimentation. Never use it for anything but tests.
func TestGroup() Group { return group.TestSchnorr() }

// PublicKey is a requester's ElGamal encryption key.
type PublicKey = elgamal.PublicKey

// PrivateKey is a requester's ElGamal key pair. One pair serves all of a
// requester's tasks: every protocol message is simulatable without the
// secret key, so nothing about it leaks (§VI).
type PrivateKey = elgamal.PrivateKey

// Ciphertext is an exponential-ElGamal ciphertext of one answer.
type Ciphertext = elgamal.Ciphertext

// Plaintext is a short-range decryption result: an in-range answer value or
// the bare group element g^m for out-of-range submissions.
type Plaintext = elgamal.Plaintext

// KeyGen creates a requester key pair over g (crypto/rand if rnd is nil).
func KeyGen(g Group, rnd io.Reader) (*PrivateKey, error) {
	return elgamal.KeyGen(g, rnd)
}

// EncryptAnswers encrypts a worker's answer vector to the requester.
func EncryptAnswers(pk *PublicKey, answers []int64, rnd io.Reader) ([]Ciphertext, error) {
	return poqoea.EncryptAnswers(pk, answers, rnd)
}

// DecryptionProof is a VPKE proof of correct decryption of one ciphertext.
type DecryptionProof = vpke.Proof

// ProveDecryption decrypts ct (over the short answer range) and proves the
// decryption correct — the paper's ProvePKE.
func ProveDecryption(sk *PrivateKey, ct Ciphertext, rangeSize int64, rnd io.Reader) (Plaintext, *DecryptionProof, error) {
	return vpke.Prove(sk, ct, rangeSize, rnd)
}

// VerifyDecryption checks a VPKE proof against a claimed in-range value —
// the paper's VerifyPKE (first branch).
func VerifyDecryption(pk *PublicKey, value int64, ct Ciphertext, proof *DecryptionProof) bool {
	return vpke.VerifyValue(pk, value, ct, proof)
}

// QualityStatement fixes the public parameters of a PoQoEA claim: golden
// standard indices/answers and the per-question option range.
type QualityStatement = poqoea.Statement

// QualityProof is a PoQoEA proof: one VPKE revelation per incorrectly
// answered golden standard, independent of the task size N.
type QualityProof = poqoea.Proof

// ProveQuality computes the quality χ of an encrypted answer vector and a
// proof that χ upper-bounds it — the paper's ProveQuality (Fig. 3).
func ProveQuality(sk *PrivateKey, cts []Ciphertext, st QualityStatement, rnd io.Reader) (int, *QualityProof, error) {
	return poqoea.Prove(sk, cts, st, rnd)
}

// VerifyQuality checks a PoQoEA claim — the paper's VerifyQuality. It
// accepts iff χ plus the valid revelations cover all golden standards
// (upper-bound soundness: a cheating requester cannot underpay).
func VerifyQuality(pk *PublicKey, cts []Ciphertext, chi int, proof *QualityProof, st QualityStatement) bool {
	return poqoea.Verify(pk, cts, chi, proof, st)
}

// Quality evaluates the plaintext quality function Σ_{i∈G}[a_i ≡ s_i].
func Quality(answers []int64, st QualityStatement) int {
	return poqoea.Quality(answers, st)
}

// QualityClaim is one quality claim for batch verification: the encrypted
// answers, the claimed quality χ, the PoQoEA proof and the public statement
// — exactly the arguments of one VerifyQuality call.
type QualityClaim = poqoea.Claim

// VerifyQualityBatch verifies many quality claims in ONE folded check (a
// single multi-scalar multiplication over all claims' VPKE revelations,
// random-linear-combination soundness, bisection on failure). It returns
// one verdict per claim, each identical to what VerifyQuality would return
// for that claim alone — at a fraction of the cost for large batches (see
// BenchmarkBatchVerify and docs/BENCHMARKS.md).
func VerifyQualityBatch(pk *PublicKey, claims []QualityClaim) []bool {
	return poqoea.VerifyBatch(pk, claims)
}

// Amount is a ledger coin amount (the smallest unit, think wei).
type Amount = ledger.Amount

// Task is a HIT specification: N questions, option range, worker quota K,
// quality threshold Θ and budget B (paying B/K per accepted answer).
type Task = task.Task

// Question is one multiple-choice question.
type Question = task.Question

// Golden holds a requester's secret golden-standard parameters (G, Gs).
type Golden = task.Golden

// TaskInstance bundles a task with its secrets for simulation.
type TaskInstance = task.Instance

// TaskParams configures the synthetic task generator.
type TaskParams = task.GenerateParams

// NewTask generates a random task instance (deterministic for a seeded
// rng).
func NewTask(p TaskParams, rng *rand.Rand) (*TaskInstance, error) {
	return task.Generate(p, rng)
}

// NewImageNetTask generates the paper's §VI evaluation workload: 106 binary
// image-annotation questions, 6 golden standards, 4 workers, Θ = 4.
func NewImageNetTask(budget Amount, rng *rand.Rand) (*TaskInstance, error) {
	return task.NewImageNet(budget, rng)
}
