package elgamal_test

import (
	"math/big"
	"testing"
	"testing/quick"

	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
)

func testKey(t *testing.T, g group.Group) *elgamal.PrivateKey {
	t.Helper()
	sk, err := elgamal.KeyGen(g, drbg.New(1, "elgamal-test-key"))
	if err != nil {
		t.Fatalf("KeyGen: %v", err)
	}
	return sk
}

func TestEncryptDecryptRoundtrip(t *testing.T) {
	for _, g := range []group.Group{group.TestSchnorr(), group.BN254G1()} {
		t.Run(g.Name(), func(t *testing.T) {
			sk := testKey(t, g)
			rnd := drbg.New(2, "roundtrip-"+g.Name())
			for _, m := range []int64{0, 1, 2, 7, 15} {
				ct, _, err := sk.Encrypt(m, rnd)
				if err != nil {
					t.Fatalf("Encrypt(%d): %v", m, err)
				}
				got := sk.Decrypt(ct, 16)
				if !got.InRange || got.Value != m {
					t.Errorf("Decrypt(Enc(%d)) = %+v", m, got)
				}
			}
		})
	}
}

func TestDecryptQuick(t *testing.T) {
	g := group.TestSchnorr()
	sk := testKey(t, g)
	rnd := drbg.New(3, "decrypt-quick")
	f := func(raw uint16) bool {
		m := int64(raw % 512)
		ct, _, err := sk.Encrypt(m, rnd)
		if err != nil {
			return false
		}
		got := sk.Decrypt(ct, 512)
		return got.InRange && got.Value == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecryptOutOfRange(t *testing.T) {
	g := group.TestSchnorr()
	sk := testKey(t, g)
	rnd := drbg.New(4, "out-of-range")
	const m = 100
	ct, _, err := sk.Encrypt(m, rnd)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	got := sk.Decrypt(ct, 4) // range {0..3}: plaintext 100 is out of range
	if got.InRange {
		t.Fatalf("expected out-of-range result, got value %d", got.Value)
	}
	// The returned element must be g^100.
	if !g.Equal(got.Element, g.ScalarBaseMul(big.NewInt(m))) {
		t.Error("out-of-range element is not g^m")
	}
}

func TestNegativePlaintextRejected(t *testing.T) {
	sk := testKey(t, group.TestSchnorr())
	if _, _, err := sk.Encrypt(-1, drbg.New(5, "negative")); err == nil {
		t.Error("expected error for negative plaintext")
	}
}

func TestShortLogBSGS(t *testing.T) {
	g := group.TestSchnorr()
	// bound > 32 exercises the baby-step/giant-step path.
	for _, m := range []int64{0, 1, 33, 500, 1023} {
		target := g.ScalarBaseMul(big.NewInt(m))
		got, ok := elgamal.ShortLog(g, target, 1024)
		if !ok || got != m {
			t.Errorf("ShortLog(g^%d) = %d, %v", m, got, ok)
		}
	}
	if _, ok := elgamal.ShortLog(g, g.ScalarBaseMul(big.NewInt(1024)), 1024); ok {
		t.Error("ShortLog found a log outside the bound")
	}
	if _, ok := elgamal.ShortLog(g, g.Generator(), 0); ok {
		t.Error("ShortLog with bound 0 should fail")
	}
}

func TestHomomorphicAddition(t *testing.T) {
	g := group.TestSchnorr()
	sk := testKey(t, g)
	rnd := drbg.New(6, "homomorphic")
	c1, _, err := sk.Encrypt(3, rnd)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := sk.Encrypt(4, rnd)
	if err != nil {
		t.Fatal(err)
	}
	sum := sk.AddCiphertexts(c1, c2)
	got := sk.Decrypt(sum, 16)
	if !got.InRange || got.Value != 7 {
		t.Errorf("Dec(Enc(3)+Enc(4)) = %+v, want 7", got)
	}
}

func TestRerandomize(t *testing.T) {
	g := group.TestSchnorr()
	sk := testKey(t, g)
	rnd := drbg.New(7, "rerandomize")
	ct, _, err := sk.Encrypt(5, rnd)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := sk.Rerandomize(ct, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if g.Equal(ct.C1, ct2.C1) && g.Equal(ct.C2, ct2.C2) {
		t.Error("rerandomized ciphertext identical to original")
	}
	got := sk.Decrypt(ct2, 16)
	if !got.InRange || got.Value != 5 {
		t.Errorf("rerandomized decryption = %+v, want 5", got)
	}
}

func TestCiphertextMarshalRoundtrip(t *testing.T) {
	for _, g := range []group.Group{group.TestSchnorr(), group.BN254G1()} {
		t.Run(g.Name(), func(t *testing.T) {
			sk := testKey(t, g)
			ct, _, err := sk.Encrypt(9, drbg.New(8, "marshal-"+g.Name()))
			if err != nil {
				t.Fatal(err)
			}
			enc := elgamal.MarshalCiphertext(g, ct)
			dec, err := elgamal.UnmarshalCiphertext(g, enc)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !g.Equal(dec.C1, ct.C1) || !g.Equal(dec.C2, ct.C2) {
				t.Error("ciphertext roundtrip mismatch")
			}
			if _, err := elgamal.UnmarshalCiphertext(g, enc[:len(enc)-1]); err == nil {
				t.Error("expected length error")
			}
		})
	}
}

// Ciphertexts of equal plaintexts must differ (semantic security smoke
// test: fresh randomness each encryption).
func TestCiphertextsAreRandomized(t *testing.T) {
	g := group.TestSchnorr()
	sk := testKey(t, g)
	rnd := drbg.New(9, "randomized")
	a, _, err := sk.Encrypt(1, rnd)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := sk.Encrypt(1, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if g.Equal(a.C1, b.C1) {
		t.Error("two encryptions shared randomness")
	}
}
