package vpke_test

import (
	"bytes"
	"io"
	"math/big"
	"testing"
	"testing/quick"

	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/vpke"
)

const rangeSize = 4

// setup draws a key pair from rnd; keys drawn in turn from one reader
// differ.
func setup(t *testing.T, g group.Group, rnd io.Reader) *elgamal.PrivateKey {
	t.Helper()
	sk, err := elgamal.KeyGen(g, rnd)
	if err != nil {
		t.Fatalf("KeyGen: %v", err)
	}
	return sk
}

func TestCompleteness(t *testing.T) {
	rnd := drbg.New(11, "TestCompleteness")
	for _, g := range []group.Group{group.TestSchnorr(), group.BN254G1()} {
		t.Run(g.Name(), func(t *testing.T) {
			sk := setup(t, g, rnd)
			for m := int64(0); m < rangeSize; m++ {
				ct, _, err := sk.Encrypt(m, rnd)
				if err != nil {
					t.Fatal(err)
				}
				plain, pi, err := vpke.Prove(sk, ct, rangeSize, rnd)
				if err != nil {
					t.Fatalf("Prove: %v", err)
				}
				if !plain.InRange || plain.Value != m {
					t.Fatalf("Prove decrypted %+v, want %d", plain, m)
				}
				if !vpke.VerifyValue(&sk.PublicKey, m, ct, pi) {
					t.Errorf("honest proof for m=%d rejected", m)
				}
			}
		})
	}
}

func TestCompletenessOutOfRange(t *testing.T) {
	rnd := drbg.New(12, "TestCompletenessOutOfRange")
	g := group.TestSchnorr()
	sk := setup(t, g, rnd)
	const m = 99 // outside [0, rangeSize)
	ct, _, err := sk.Encrypt(m, rnd)
	if err != nil {
		t.Fatal(err)
	}
	plain, pi, err := vpke.Prove(sk, ct, rangeSize, rnd)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if plain.InRange {
		t.Fatalf("plaintext %d reported in range", m)
	}
	if !vpke.VerifyElement(&sk.PublicKey, plain.Element, ct, pi) {
		t.Error("honest out-of-range proof rejected")
	}
	// And the element branch must identify g^m.
	if !g.Equal(plain.Element, g.ScalarBaseMul(big.NewInt(m))) {
		t.Error("revealed element is not g^m")
	}
}

// Soundness: a proof for the true plaintext must not verify against any
// other claimed plaintext.
func TestSoundnessWrongPlaintext(t *testing.T) {
	rnd := drbg.New(13, "TestSoundnessWrongPlaintext")
	g := group.TestSchnorr()
	sk := setup(t, g, rnd)
	ct, _, err := sk.Encrypt(2, rnd)
	if err != nil {
		t.Fatal(err)
	}
	_, pi, err := vpke.Prove(sk, ct, rangeSize, rnd)
	if err != nil {
		t.Fatal(err)
	}
	for m := int64(0); m < rangeSize; m++ {
		if m == 2 {
			continue
		}
		if vpke.VerifyValue(&sk.PublicKey, m, ct, pi) {
			t.Errorf("proof for 2 accepted for claimed plaintext %d", m)
		}
	}
}

// Soundness: a proof is bound to its ciphertext.
func TestSoundnessWrongCiphertext(t *testing.T) {
	rnd := drbg.New(14, "TestSoundnessWrongCiphertext")
	g := group.TestSchnorr()
	sk := setup(t, g, rnd)
	ct1, _, err := sk.Encrypt(1, rnd)
	if err != nil {
		t.Fatal(err)
	}
	ct2, _, err := sk.Encrypt(1, rnd)
	if err != nil {
		t.Fatal(err)
	}
	_, pi, err := vpke.Prove(sk, ct1, rangeSize, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if vpke.VerifyValue(&sk.PublicKey, 1, ct2, pi) {
		t.Error("proof transplanted across ciphertexts accepted")
	}
}

// Soundness: mangled proof components must be rejected.
func TestSoundnessMangledProof(t *testing.T) {
	rnd := drbg.New(15, "TestSoundnessMangledProof")
	g := group.TestSchnorr()
	sk := setup(t, g, rnd)
	ct, _, err := sk.Encrypt(3, rnd)
	if err != nil {
		t.Fatal(err)
	}
	_, pi, err := vpke.Prove(sk, ct, rangeSize, rnd)
	if err != nil {
		t.Fatal(err)
	}
	mangled := *pi
	mangled.Z = new(big.Int).Add(pi.Z, big.NewInt(1))
	if vpke.VerifyValue(&sk.PublicKey, 3, ct, &mangled) {
		t.Error("mangled Z accepted")
	}
	mangled = *pi
	mangled.A = g.Generator()
	if vpke.VerifyValue(&sk.PublicKey, 3, ct, &mangled) {
		t.Error("mangled A accepted")
	}
	mangled = *pi
	mangled.Z = new(big.Int).Add(pi.Z, g.Order()) // out of scalar range
	if vpke.VerifyValue(&sk.PublicKey, 3, ct, &mangled) {
		t.Error("out-of-range Z accepted")
	}
	if vpke.VerifyValue(&sk.PublicKey, 3, ct, nil) {
		t.Error("nil proof accepted")
	}
}

func TestSoundnessQuick(t *testing.T) {
	rnd := drbg.New(16, "TestSoundnessQuick")
	g := group.TestSchnorr()
	sk := setup(t, g, rnd)
	f := func(mRaw, claimRaw uint8) bool {
		m := int64(mRaw % rangeSize)
		claim := int64(claimRaw % rangeSize)
		ct, _, err := sk.Encrypt(m, rnd)
		if err != nil {
			return false
		}
		_, pi, err := vpke.Prove(sk, ct, rangeSize, rnd)
		if err != nil {
			return false
		}
		got := vpke.VerifyValue(&sk.PublicKey, claim, ct, pi)
		return got == (claim == m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Zero-knowledge: transcripts with programmable challenges are perfectly
// simulatable from public data; and the simulated transcript must NOT pass
// the Fiat–Shamir verifier (the hash cannot be programmed), confirming the
// simulation is meaningful.
func TestZeroKnowledgeSimulation(t *testing.T) {
	rnd := drbg.New(17, "TestZeroKnowledgeSimulation")
	g := group.TestSchnorr()
	sk := setup(t, g, rnd)
	ct, _, err := sk.Encrypt(1, rnd)
	if err != nil {
		t.Fatal(err)
	}
	gm := g.ScalarBaseMul(big.NewInt(1))
	pi, c, err := vpke.SimulateProof(&sk.PublicKey, gm, ct, rnd)
	if err != nil {
		t.Fatalf("SimulateProof: %v", err)
	}
	if !vpke.VerifyWithChallenge(&sk.PublicKey, gm, ct, pi, c) {
		t.Error("simulated transcript fails its own challenge equations")
	}
	if vpke.VerifyElement(&sk.PublicKey, gm, ct, pi) {
		t.Error("simulated transcript passed the Fiat–Shamir verifier")
	}
	// A caller-supplied transcript that is not ValidShape, or comes with no
	// challenge, fails instead of panicking.
	malformed := map[string]*vpke.Proof{
		"nil proof": nil,
		"empty":     {},
		"nil A":     {B: pi.B, Z: pi.Z},
		"nil B":     {A: pi.A, Z: pi.Z},
		"nil Z":     {A: pi.A, B: pi.B},
		"Z + order": {A: pi.A, B: pi.B, Z: new(big.Int).Add(pi.Z, g.Order())},
	}
	for name, bad := range malformed {
		if vpke.VerifyWithChallenge(&sk.PublicKey, gm, ct, bad, c) {
			t.Errorf("%s: malformed transcript accepted", name)
		}
	}
	if vpke.VerifyWithChallenge(&sk.PublicKey, gm, ct, pi, nil) {
		t.Error("nil challenge accepted")
	}
}

func TestProofMarshalRoundtrip(t *testing.T) {
	rnd := drbg.New(18, "TestProofMarshalRoundtrip")
	for _, g := range []group.Group{group.TestSchnorr(), group.BN254G1()} {
		t.Run(g.Name(), func(t *testing.T) {
			sk := setup(t, g, rnd)
			ct, _, err := sk.Encrypt(2, rnd)
			if err != nil {
				t.Fatal(err)
			}
			_, pi, err := vpke.Prove(sk, ct, rangeSize, rnd)
			if err != nil {
				t.Fatal(err)
			}
			enc := vpke.MarshalProof(g, pi)
			dec, err := vpke.UnmarshalProof(g, enc)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !vpke.VerifyValue(&sk.PublicKey, 2, ct, dec) {
				t.Error("roundtripped proof rejected")
			}
			if _, err := vpke.UnmarshalProof(g, enc[:len(enc)-1]); err == nil {
				t.Error("expected length error")
			}
		})
	}
}

// TestProveOpenedMatchesProveWithNonce: proving from a decryption the
// caller already holds — exact or through a short-log table — yields the
// very proof ProveWithNonce builds with the same nonce, in range and out.
func TestProveOpenedMatchesProveWithNonce(t *testing.T) {
	for _, g := range []group.Group{group.TestSchnorr(), group.BN254G1()} {
		t.Run(g.Name(), func(t *testing.T) {
			rnd := drbg.New(5, "prove-opened")
			sk, err := elgamal.KeyGen(g, rnd)
			if err != nil {
				t.Fatal(err)
			}
			table := elgamal.NewShortLogTable(g, rangeSize)
			for _, m := range []int64{0, rangeSize - 1, 99} {
				ct, _, err := sk.Encrypt(m, rnd)
				if err != nil {
					t.Fatal(err)
				}
				x, err := group.RandomScalar(g, rnd)
				if err != nil {
					t.Fatal(err)
				}
				plain, want := vpke.ProveWithNonce(sk, ct, rangeSize, x)
				if plain.InRange != (m < rangeSize) {
					t.Fatalf("m=%d: decrypted %+v", m, plain)
				}
				for name, opened := range map[string]elgamal.Plaintext{
					"decrypt": sk.Decrypt(ct, rangeSize),
					"table":   sk.DecryptMany(table, []elgamal.Ciphertext{ct})[0],
				} {
					got := vpke.ProveOpened(sk, ct, opened, x)
					if !bytes.Equal(vpke.MarshalProof(g, got), vpke.MarshalProof(g, want)) {
						t.Errorf("m=%d, %s: ProveOpened differs from ProveWithNonce", m, name)
					}
				}
			}
		})
	}
}
