package poqoea_test

import (
	"testing"

	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/poqoea"
	"dragoon/internal/vpke"
)

// TestSimulatorProducesValidTranscripts validates the paper's Lemma 1
// zero-knowledge argument: transcripts for ANY claimed quality are
// producible from public data alone (no decryption key), verify under
// their programmed challenges, and do NOT pass the Fiat–Shamir verifier.
func TestSimulatorProducesValidTranscripts(t *testing.T) {
	g := group.TestSchnorr()
	rnd := drbg.New(31, "TestSimulatorProducesValidTranscripts")
	sk, err := elgamal.KeyGen(g, rnd)
	if err != nil {
		t.Fatal(err)
	}
	st := imagenetStatement()
	answers := answersWithQuality(st, 4, 106) // true quality 4
	cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, rnd)
	if err != nil {
		t.Fatal(err)
	}
	// The simulator never sees sk: it takes only the public key.
	for chi := 0; chi <= len(st.GoldenIndices); chi++ {
		tr, err := poqoea.Simulate(&sk.PublicKey, cts, chi, st, rnd)
		if err != nil {
			t.Fatalf("Simulate(χ=%d): %v", chi, err)
		}
		if len(tr.Wrong) != len(st.GoldenIndices)-chi {
			t.Fatalf("χ=%d: %d simulated revelations", chi, len(tr.Wrong))
		}
		if !poqoea.VerifySimulated(&sk.PublicKey, cts, chi, tr, st) {
			t.Errorf("χ=%d: simulated transcript rejected by its own challenges", chi)
		}
		// Crucially the simulated proofs must NOT verify under the real
		// (Fiat–Shamir) verifier — otherwise the simulator would be a
		// soundness break, not a zero-knowledge argument.
		for _, w := range tr.Wrong {
			if vpke.VerifyElement(&sk.PublicKey, w.Plain.Element, cts[w.Index], w.Proof) {
				t.Errorf("χ=%d: simulated VPKE proof passed Fiat–Shamir", chi)
			}
		}
	}
}

func TestSimulatorRejectsBadQuality(t *testing.T) {
	g := group.TestSchnorr()
	rnd := drbg.New(32, "TestSimulatorRejectsBadQuality")
	sk, err := elgamal.KeyGen(g, rnd)
	if err != nil {
		t.Fatal(err)
	}
	st := imagenetStatement()
	cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answersWithQuality(st, 3, 106), rnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poqoea.Simulate(&sk.PublicKey, cts, -1, st, rnd); err == nil {
		t.Error("negative quality accepted")
	}
	if _, err := poqoea.Simulate(&sk.PublicKey, cts, 7, st, rnd); err == nil {
		t.Error("quality above |G| accepted")
	}
}

func TestSimulatedGuessesAvoidTruth(t *testing.T) {
	g := group.TestSchnorr()
	rnd := drbg.New(33, "TestSimulatedGuessesAvoidTruth")
	sk, err := elgamal.KeyGen(g, rnd)
	if err != nil {
		t.Fatal(err)
	}
	st := imagenetStatement()
	cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answersWithQuality(st, 0, 106), rnd)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		tr, err := poqoea.Simulate(&sk.PublicKey, cts, 0, st, rnd)
		if err != nil {
			t.Fatal(err)
		}
		for j, w := range tr.Wrong {
			if w.Plain.Value == st.GoldenAnswers[j] {
				t.Fatal("simulator guessed the golden answer as a wrong answer")
			}
			if w.Plain.Value < 0 || w.Plain.Value >= st.RangeSize {
				t.Fatalf("simulated guess %d out of range", w.Plain.Value)
			}
		}
	}
}
