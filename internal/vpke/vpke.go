// Package vpke implements the paper's verifiable public-key encryption —
// concretely, verifiable decryption of exponential ElGamal (§V-C). The
// decryptor proves, non-interactively, that a ciphertext (c1, c2) decrypts
// to a claimed plaintext, via a Schnorr-style proof for the Diffie–Hellman
// tuple (g, h, c1, c2/g^m) with the Fiat–Shamir transform in the random
// oracle model (H = keccak256):
//
//	Prove:  x ←$ Z_r, A = c1^x, B = g^x,
//	        C = H(A ‖ B ‖ g ‖ h ‖ c1 ‖ c2 ‖ g^m), Z = x + k·C
//	Verify: g^(m·C)·c1^Z ≟ A·c2^C   and   g^Z ≟ B·h^C
//
// When the plaintext lies outside the answer range, the prover reveals the
// group element M = g^m instead and the verifier substitutes M for g^m in
// both the hash and the first equation — the second branch of the paper's
// VerifyPKE. The proof is zero-knowledge (simulatable given only public
// values) and sound under the discrete-log assumption in the ROM.
package vpke

import (
	"fmt"
	"io"
	"math/big"

	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/keccak"
)

// Proof is a non-interactive proof of correct decryption.
type Proof struct {
	A, B group.Element
	Z    *big.Int
}

// Prove decrypts ct (trying the short range [0, rangeSize)) and produces a
// proof of correct decryption. It returns the plaintext (integer or bare
// group element, per elgamal.Plaintext) along with the proof.
func Prove(sk *elgamal.PrivateKey, ct elgamal.Ciphertext, rangeSize int64, rnd io.Reader) (elgamal.Plaintext, *Proof, error) {
	x, err := group.RandomScalar(sk.Group, rnd)
	if err != nil {
		return elgamal.Plaintext{}, nil, fmt.Errorf("vpke: sampling nonce: %w", err)
	}
	plain, pi := ProveWithNonce(sk, ct, rangeSize, x)
	return plain, pi, nil
}

// ProveWithNonce is Prove with a caller-supplied Schnorr nonce x, so batch
// provers can draw their nonces sequentially from one randomness stream and
// then run the group operations concurrently; given the same nonce, the
// output transcript is identical to Prove's.
func ProveWithNonce(sk *elgamal.PrivateKey, ct elgamal.Ciphertext, rangeSize int64, x *big.Int) (elgamal.Plaintext, *Proof) {
	plain := sk.Decrypt(ct, rangeSize)
	return plain, ProveOpened(sk, ct, plain, x)
}

// ProveOpened proves that ct decrypts to plain, a decryption of ct under sk
// the caller already holds, with Schnorr nonce x: ProveWithNonce without
// the decryption (only plain.Element enters the transcript). PoQoEA's
// ProveOpened and a requester that decrypted a whole submission once use
// it. Given the same nonce the proof is identical to ProveWithNonce's.
func ProveOpened(sk *elgamal.PrivateKey, ct elgamal.Ciphertext, plain elgamal.Plaintext, x *big.Int) *Proof {
	g := sk.Group
	a := g.ScalarMul(ct.C1, x)
	b := g.ScalarBaseMul(x)
	c := challenge(g, a, b, sk.H, ct, plain.Element)
	// Z = x + k·C mod r.
	z := new(big.Int).Mul(sk.K, c)
	z.Add(z, x)
	z.Mod(z, g.Order())
	return &Proof{A: a, B: b, Z: z}
}

// VerifyValue checks that ct decrypts to the in-range integer m.
func VerifyValue(pk *elgamal.PublicKey, m int64, ct elgamal.Ciphertext, pi *Proof) bool {
	if m < 0 {
		return false
	}
	gm := pk.Group.ScalarBaseMul(big.NewInt(m))
	return VerifyElement(pk, gm, ct, pi)
}

// VerifyElement checks that ct decrypts to the (possibly out-of-range) group
// element gm = g^m. This is the second branch of the paper's VerifyPKE; the
// first branch (VerifyValue) reduces to it by lifting m to g^m.
func VerifyElement(pk *elgamal.PublicKey, gm group.Element, ct elgamal.Ciphertext, pi *Proof) bool {
	if !ValidShape(pk.Group, pi) {
		return false
	}
	return VerifyWithChallenge(pk, gm, ct, pi, challenge(pk.Group, pi.A, pi.B, pk.H, ct, gm))
}

// ChallengeFor recomputes the Fiat–Shamir challenge of a proof transcript —
// C = H(A ‖ B ‖ g ‖ h ‖ c1 ‖ c2 ‖ g^m) reduced into the scalar field — for
// verifiers that need the challenge value itself rather than the verdict.
// Batch verification (package batch) folds many proofs' two equations into
// one multi-scalar multiplication and needs every C_i as a fold scalar. The
// proof must be shape-valid (see ValidShape); h is the verifier public key
// the ciphertext was encrypted under.
func ChallengeFor(g group.Group, h group.Element, gm group.Element, ct elgamal.Ciphertext, pi *Proof) *big.Int {
	return challenge(g, pi.A, pi.B, h, ct, gm)
}

// ValidShape reports whether a proof is structurally well-formed: all fields
// present and the response Z a canonical scalar in [0, order). It is the
// exact structural precondition VerifyWithChallenge enforces before its two
// verification equations, exported so batch verifiers reject malformed
// proofs identically to the per-proof path.
func ValidShape(g group.Group, pi *Proof) bool {
	if pi == nil || pi.A == nil || pi.B == nil || pi.Z == nil {
		return false
	}
	return pi.Z.Sign() >= 0 && pi.Z.Cmp(g.Order()) < 0
}

// challenge derives the Fiat–Shamir challenge
// C = H(A ‖ B ‖ g ‖ h ‖ c1 ‖ c2 ‖ g^m) reduced into the scalar field.
func challenge(g group.Group, a, b, h group.Element, ct elgamal.Ciphertext, gm group.Element) *big.Int {
	digest := keccak.Sum256Concat(
		g.Marshal(a),
		g.Marshal(b),
		g.Marshal(g.Generator()),
		g.Marshal(h),
		g.Marshal(ct.C1),
		g.Marshal(ct.C2),
		g.Marshal(gm),
	)
	c := new(big.Int).SetBytes(digest[:])
	return c.Mod(c, g.Order())
}

// MarshalProof encodes a proof as A ‖ B ‖ Z (Z as a 32-byte big-endian
// scalar).
func MarshalProof(g group.Group, pi *Proof) []byte {
	out := make([]byte, 0, 2*g.ElementLen()+32)
	out = append(out, g.Marshal(pi.A)...)
	out = append(out, g.Marshal(pi.B)...)
	z := make([]byte, 32)
	pi.Z.FillBytes(z)
	return append(out, z...)
}

// UnmarshalProof decodes a proof produced by MarshalProof.
func UnmarshalProof(g group.Group, data []byte) (*Proof, error) {
	n := g.ElementLen()
	if len(data) != 2*n+32 {
		return nil, fmt.Errorf("vpke: bad proof length %d", len(data))
	}
	a, err := g.Unmarshal(data[:n])
	if err != nil {
		return nil, fmt.Errorf("vpke: decoding A: %w", err)
	}
	b, err := g.Unmarshal(data[n : 2*n])
	if err != nil {
		return nil, fmt.Errorf("vpke: decoding B: %w", err)
	}
	return &Proof{A: a, B: b, Z: new(big.Int).SetBytes(data[2*n:])}, nil
}

// SimulateProof produces a proof transcript for the statement "ct decrypts
// to gm" WITHOUT the private key, by programming the challenge: it samples
// (C, Z) and solves for (A, B). The output verifies under a verifier that
// accepts the embedded challenge; it exists to demonstrate (and test) the
// zero-knowledge property — transcripts are simulatable from public data —
// not for production use (the Fiat–Shamir hash cannot actually be
// programmed, so SimulateProof outputs fail VerifyElement, which tests
// assert).
func SimulateProof(pk *elgamal.PublicKey, gm group.Element, ct elgamal.Ciphertext, rnd io.Reader) (*Proof, *big.Int, error) {
	g := pk.Group
	c, err := group.RandomScalar(g, rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("vpke: simulating: %w", err)
	}
	z, err := group.RandomScalar(g, rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("vpke: simulating: %w", err)
	}
	// Solve the verification equations for A and B:
	// A = gm^C·c1^Z·c2^(−C), B = g^Z·h^(−C).
	a := g.Add(g.ScalarMul(gm, c), g.ScalarMul(ct.C1, z))
	a = group.Sub(g, a, g.ScalarMul(ct.C2, c))
	b := group.Sub(g, g.ScalarBaseMul(z), pk.MulH(c))
	return &Proof{A: a, B: b, Z: z}, c, nil
}

// VerifyWithChallenge runs the two verification equations against an
// explicit challenge c instead of the Fiat–Shamir hash: VerifyElement calls
// it with the hash, and the zero-knowledge simulator (package poqoea's
// VerifySimulated) with the challenge it programmed. A proof that is not
// ValidShape, or a nil challenge, fails.
func VerifyWithChallenge(pk *elgamal.PublicKey, gm group.Element, ct elgamal.Ciphertext, pi *Proof, c *big.Int) bool {
	g := pk.Group
	if c == nil || !ValidShape(g, pi) {
		return false
	}
	// Equation 1: gm^C · c1^Z ≟ A · c2^C.
	lhs1 := g.Add(g.ScalarMul(gm, c), g.ScalarMul(ct.C1, pi.Z))
	rhs1 := g.Add(pi.A, g.ScalarMul(ct.C2, c))
	if !g.Equal(lhs1, rhs1) {
		return false
	}
	// Equation 2: g^Z ≟ B · h^C.
	lhs2 := g.ScalarBaseMul(pi.Z)
	rhs2 := g.Add(pi.B, pk.MulH(c))
	return g.Equal(lhs2, rhs2)
}
