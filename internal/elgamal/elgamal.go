// Package elgamal implements exponential (lifted) ElGamal encryption over an
// abstract prime-order group, exactly as instantiated by the Dragoon paper
// (§V-C): the private key k ←$ Z_p, public key h = g^k, encryption
// Enc_h(m) = (g^r, g^m·h^r), and "short range" decryption that brute-forces
// the small plaintext space of HIT answers. When the plaintext is outside
// the expected range, decryption returns the group element g^m instead — the
// paper relies on this to let the requester prove out-of-range submissions.
package elgamal

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"dragoon/internal/group"
)

// PublicKey is an ElGamal public key h = g^k together with its group.
type PublicKey struct {
	Group group.Group
	H     group.Element
}

// PrivateKey is an ElGamal key pair.
type PrivateKey struct {
	PublicKey
	K *big.Int
}

// KeyGen samples a fresh key pair over g using randomness from r
// (crypto/rand if nil).
func KeyGen(g group.Group, r io.Reader) (*PrivateKey, error) {
	k, err := group.RandomScalar(g, r)
	if err != nil {
		return nil, fmt.Errorf("elgamal: keygen: %w", err)
	}
	return &PrivateKey{
		PublicKey: PublicKey{Group: g, H: g.ScalarBaseMul(k)},
		K:         k,
	}, nil
}

// Ciphertext is an exponential-ElGamal ciphertext (c1, c2) = (g^r, g^m·h^r).
type Ciphertext struct {
	C1, C2 group.Element
}

// Encrypt encrypts the small integer m under pk, returning the ciphertext
// and the encryption randomness r (needed only by callers that want to prove
// statements about their own ciphertexts; Dragoon's requester never needs
// it, as VPKE proofs use the decryption key instead).
func (pk *PublicKey) Encrypt(m int64, rnd io.Reader) (Ciphertext, *big.Int, error) {
	if m < 0 {
		return Ciphertext{}, nil, errors.New("elgamal: negative plaintext")
	}
	r, err := group.RandomScalar(pk.Group, rnd)
	if err != nil {
		return Ciphertext{}, nil, fmt.Errorf("elgamal: encrypt: %w", err)
	}
	ct, err := pk.EncryptWithRandomness(m, r)
	if err != nil {
		return Ciphertext{}, nil, err
	}
	return ct, r, nil
}

// EncryptWithRandomness encrypts m with caller-supplied encryption
// randomness r. It exists so batch encryptors can draw their randomness
// sequentially from one stream (keeping seeded runs reproducible) and then
// compute the expensive group operations concurrently; the output is
// identical to Encrypt consuming the same r.
func (pk *PublicKey) EncryptWithRandomness(m int64, r *big.Int) (Ciphertext, error) {
	if m < 0 {
		return Ciphertext{}, errors.New("elgamal: negative plaintext")
	}
	g := pk.Group
	c1 := g.ScalarBaseMul(r)
	c2 := g.Add(g.ScalarBaseMul(big.NewInt(m)), pk.MulH(r))
	return Ciphertext{C1: c1, C2: c2}, nil
}

// MulH returns k·h for the public key element h, through
// group.SharedBase: a key that has served enough multiplications to pay
// for a fixed-base table gets one and then costs a few dozen mixed
// additions per multiplication, a key that has not is multiplied on the
// group's variable-base path, and metered and table-less groups always fall
// back to ScalarMul (so on-chain gas accounting is unchanged).
func (pk *PublicKey) MulH(k *big.Int) group.Element {
	return group.SharedBase(pk.Group, pk.H).Mul(k)
}

// EncryptBatchWithRandomness encrypts ms[i] with randomness rs[i] for every
// i, returning ciphertexts identical to per-element EncryptWithRandomness
// calls. Both bases go through group.SharedBase, which serves the BN254
// generator from its process-wide table, and h from a table once the key
// has served enough multiplications to pay for one (a key shared across
// tasks), with one batch normalization per table call. For an n-question task under such a
// key the batch costs O(n) mixed additions and O(1) field inversions; a
// fresh key with few answers pays n variable-base multiplications for h
// instead of a table build.
func (pk *PublicKey) EncryptBatchWithRandomness(ms []int64, rs []*big.Int) ([]Ciphertext, error) {
	if len(ms) != len(rs) {
		return nil, fmt.Errorf("elgamal: batch length mismatch: %d plaintexts, %d scalars", len(ms), len(rs))
	}
	g := pk.Group
	mScalars := make([]*big.Int, len(ms))
	for i, m := range ms {
		if m < 0 {
			return nil, errors.New("elgamal: negative plaintext")
		}
		mScalars[i] = big.NewInt(m)
	}
	gT := group.SharedBase(g, g.Generator())
	hT := group.SharedBase(g, pk.H)
	c1s := gT.MulMany(rs)
	gms := gT.MulMany(mScalars)
	c2s := hT.MulManyAdd(rs, gms)
	cts := make([]Ciphertext, len(ms))
	for i := range cts {
		cts[i] = Ciphertext{C1: c1s[i], C2: c2s[i]}
	}
	return cts, nil
}

// Plaintext is the result of a short-range decryption: either a recovered
// integer in [0, rangeSize), or — when the encrypted value lies outside the
// range — the bare group element g^m.
type Plaintext struct {
	// InRange reports whether Value holds the decrypted integer.
	InRange bool
	// Value is the decrypted plaintext; valid only when InRange.
	Value int64
	// Element is g^m, always set.
	Element group.Element
}

// Decrypt decrypts ct with the private key and attempts to recover a
// plaintext in [0, rangeSize) by solving the short discrete log of
// c2·c1^(−k). Per the paper: "if decryption fails to output m ∈ range, then
// c2/c1^k is returned".
func (sk *PrivateKey) Decrypt(ct Ciphertext, rangeSize int64) Plaintext {
	g := sk.Group
	gm := group.Sub(g, ct.C2, g.ScalarMul(ct.C1, sk.K))
	if m, ok := ShortLog(g, gm, rangeSize); ok {
		return Plaintext{InRange: true, Value: m, Element: gm}
	}
	return Plaintext{Element: gm}
}

// ShortLog solves g^m = target for m in [0, bound) using baby-step/giant-step
// (falling back to a linear scan for tiny bounds). It reports whether a
// solution in range exists. Non-positive bounds never match; bounds up to
// math.MaxInt64 are accepted without overflow (the step size is computed
// with big.Int arithmetic and the table size is capped — see shortLogStep).
func ShortLog(g group.Group, target group.Element, bound int64) (int64, bool) {
	if bound <= 0 {
		return 0, false
	}
	if bound <= shortLogLinearMax {
		cur := g.Identity()
		gen := g.Generator()
		for m := int64(0); m < bound; m++ {
			if g.Equal(cur, target) {
				return m, true
			}
			cur = g.Add(cur, gen)
		}
		return 0, false
	}
	// Baby-step giant-step: m = i·s + j with s = ⌈√bound⌉.
	s := shortLogStep(bound)
	baby := make(map[string]int64, s)
	cur := g.Identity()
	gen := g.Generator()
	for j := int64(0); j < s; j++ {
		baby[string(g.Marshal(cur))] = j
		cur = g.Add(cur, gen)
	}
	// giant = g^(−s). The loop bound i ≤ (bound−1)/s is the overflow-safe
	// form of i·s < bound.
	giant := g.Neg(g.ScalarBaseMul(big.NewInt(s)))
	probe := target
	last := (bound - 1) / s
	for i := int64(0); i <= last; i++ {
		if j, ok := baby[string(g.Marshal(probe))]; ok {
			m := i*s + j
			if m < bound {
				return m, true
			}
			return 0, false
		}
		probe = g.Add(probe, giant)
	}
	return 0, false
}

// Rerandomize returns a fresh ciphertext of the same plaintext, used in
// tests to confirm that ciphertexts leak nothing linkable.
func (pk *PublicKey) Rerandomize(ct Ciphertext, rnd io.Reader) (Ciphertext, error) {
	r, err := group.RandomScalar(pk.Group, rnd)
	if err != nil {
		return Ciphertext{}, fmt.Errorf("elgamal: rerandomize: %w", err)
	}
	g := pk.Group
	return Ciphertext{
		C1: g.Add(ct.C1, g.ScalarBaseMul(r)),
		C2: g.Add(ct.C2, pk.MulH(r)),
	}, nil
}

// AddCiphertexts homomorphically adds two ciphertexts (Enc(m1+m2)); exposed
// because exponential ElGamal is additively homomorphic, which several tests
// and the crowd-sensing example exploit.
func (pk *PublicKey) AddCiphertexts(a, b Ciphertext) Ciphertext {
	g := pk.Group
	return Ciphertext{C1: g.Add(a.C1, b.C1), C2: g.Add(a.C2, b.C2)}
}

// MarshalCiphertext encodes ct as the concatenation of its two elements.
func MarshalCiphertext(g group.Group, ct Ciphertext) []byte {
	out := make([]byte, 0, 2*g.ElementLen())
	out = append(out, g.Marshal(ct.C1)...)
	out = append(out, g.Marshal(ct.C2)...)
	return out
}

// UnmarshalCiphertext decodes a ciphertext produced by MarshalCiphertext.
func UnmarshalCiphertext(g group.Group, data []byte) (Ciphertext, error) {
	n := g.ElementLen()
	if len(data) != 2*n {
		return Ciphertext{}, fmt.Errorf("elgamal: bad ciphertext length %d", len(data))
	}
	c1, err := g.Unmarshal(data[:n])
	if err != nil {
		return Ciphertext{}, fmt.Errorf("elgamal: decoding c1: %w", err)
	}
	c2, err := g.Unmarshal(data[n:])
	if err != nil {
		return Ciphertext{}, fmt.Errorf("elgamal: decoding c2: %w", err)
	}
	return Ciphertext{C1: c1, C2: c2}, nil
}
