package vpke_test

import (
	"testing"

	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/vpke"
)

// Proofs must be bound to the public key: a proof generated under one key
// pair must not verify against another requester's key, even for the same
// plaintext (the Fiat–Shamir challenge binds h).
func TestProofBoundToPublicKey(t *testing.T) {
	rnd := drbg.New(31, "TestProofBoundToPublicKey")
	g := group.TestSchnorr()
	sk1 := setup(t, g, rnd)
	sk2 := setup(t, g, rnd)
	ct, _, err := sk1.Encrypt(1, rnd)
	if err != nil {
		t.Fatal(err)
	}
	_, pi, err := vpke.Prove(sk1, ct, rangeSize, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if !vpke.VerifyValue(&sk1.PublicKey, 1, ct, pi) {
		t.Fatal("honest proof rejected under own key")
	}
	if vpke.VerifyValue(&sk2.PublicKey, 1, ct, pi) {
		t.Error("proof transplanted across public keys accepted")
	}
}

// Re-randomizing the ciphertext invalidates its proof: the challenge binds
// (c1, c2) exactly.
func TestProofBoundToRandomness(t *testing.T) {
	rnd := drbg.New(32, "TestProofBoundToRandomness")
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
	ct2, err := sk.Rerandomize(ct, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if vpke.VerifyValue(&sk.PublicKey, 2, ct2, pi) {
		t.Error("proof survived ciphertext re-randomization")
	}
}

// A proof with swapped A/B components must not verify (component ordering
// is part of the statement, not a convention).
func TestProofComponentsNotInterchangeable(t *testing.T) {
	rnd := drbg.New(33, "TestProofComponentsNotInterchangeable")
	g := group.TestSchnorr()
	sk := setup(t, g, rnd)
	ct, _, err := sk.Encrypt(0, rnd)
	if err != nil {
		t.Fatal(err)
	}
	_, pi, err := vpke.Prove(sk, ct, rangeSize, rnd)
	if err != nil {
		t.Fatal(err)
	}
	swapped := &vpke.Proof{A: pi.B, B: pi.A, Z: pi.Z}
	if vpke.VerifyValue(&sk.PublicKey, 0, ct, swapped) {
		t.Error("A/B-swapped proof accepted")
	}
	_ = elgamal.Ciphertext{}
}
