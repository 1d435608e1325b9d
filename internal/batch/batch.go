// Package batch implements amortized ("batch") verification for the
// protocol's proof systems: many independent verification equations are
// folded into ONE algebraic check via a random linear combination (RLC)
// with small random exponents, so the dominant cost — scalar
// multiplications, or Miller loops for pairing equations — is paid once per
// batch through a multi-scalar multiplication instead of once per proof.
//
// The engine makes three guarantees its consumers rely on:
//
//   - determinism: fold exponents are drawn from a DRBG seeded by a keccak
//     transcript of the statements being verified (a Fiat–Shamir-style
//     derivation), so a batch over the same statements folds identically in
//     every run — seeded protocol executions stay byte-for-byte
//     reproducible with batching on or off;
//   - exact verdicts: a failed fold is bisected (sub-folds over halves,
//     exact per-proof verification at singletons) until the offending
//     statement indices are identified, so who gets paid and who gets
//     slashed is identical to per-proof verification. The only deviation is
//     the standard RLC soundness slack: a batch containing an invalid proof
//     escapes detection with probability ≤ 2⁻¹²⁸ per fold (≤ 1/order for
//     smaller groups);
//   - hostile-input hygiene: structurally malformed statements are rejected
//     before the fold exactly as the per-proof verifiers reject them, and
//     externally supplied fold exponents are validated (nonzero, canonical,
//     pairwise distinct) — a zero or duplicated exponent would let
//     cancelling invalid proofs slip through the combination.
//
// Consumers: poqoea.VerifyBatch (quality claims), groth16.BatchVerify (one
// multi-pairing for many proofs), the requester's batched submission decode
// (protocol), and the marketplace round auditor that folds every rejection
// proof landing in one mined round across all tasks (market).
//
// Every consumer takes the per-run choice between batched and per-proof
// verification through Resolve; the adversary-matrix knob sweep asserts
// the two modes are fingerprint-identical.
package batch

// Resolve turns a per-run override into the batching decision: > 0 selects
// folded verification, anything else per-proof verification (the reference
// semantics). Harness configs (market, sim, adversary, service) carry the
// override as opts.Options.BatchVerify.
func Resolve(override int) bool { return override > 0 }
