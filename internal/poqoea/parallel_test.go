package poqoea_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/poqoea"
	"dragoon/internal/vpke"
)

// streamReader is a deterministic randomness stream (seeded math/rand) used
// to compare sequential and parallel executions draw-for-draw.
type streamReader struct{ r *rand.Rand }

func (s streamReader) Read(p []byte) (int, error) { return s.r.Read(p) }

func stream(seed int64) streamReader { return streamReader{r: rand.New(rand.NewSource(seed))} }

// TestParallelCryptoMatchesSequential pins the parallel layer's determinism
// contract at the crypto level: with the same randomness stream,
// EncryptAnswers and Prove produce byte-for-byte identical ciphertexts and
// proofs at any pool size, and Verify accepts under both.
func TestParallelCryptoMatchesSequential(t *testing.T) {
	g := group.TestSchnorr()
	sk, err := elgamal.KeyGen(g, stream(1))
	if err != nil {
		t.Fatal(err)
	}
	st := poqoea.Statement{
		GoldenIndices: []int{0, 3, 5, 8, 11, 13, 17, 19},
		GoldenAnswers: []int64{1, 0, 2, 1, 0, 3, 2, 1},
		RangeSize:     4,
	}
	answers := make([]int64, 24)
	for i := range answers {
		answers[i] = int64(i % 4) // some golden answers right, some wrong
	}

	type run struct {
		cts   []elgamal.Ciphertext
		chi   int
		proof *poqoea.Proof
	}
	runAt := func(workers int) run {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, stream(2))
		if err != nil {
			t.Fatalf("workers=%d: encrypt: %v", workers, err)
		}
		chi, proof, err := poqoea.Prove(sk, cts, st, stream(3))
		if err != nil {
			t.Fatalf("workers=%d: prove: %v", workers, err)
		}
		if !poqoea.Verify(&sk.PublicKey, cts, chi, proof, st) {
			t.Fatalf("workers=%d: proof rejected", workers)
		}
		return run{cts: cts, chi: chi, proof: proof}
	}

	seq := runAt(1)
	for _, workers := range []int{2, 4, 8} {
		par := runAt(workers)
		if par.chi != seq.chi {
			t.Errorf("workers=%d: quality %d, sequential %d", workers, par.chi, seq.chi)
		}
		for i := range seq.cts {
			if !bytes.Equal(
				elgamal.MarshalCiphertext(g, seq.cts[i]),
				elgamal.MarshalCiphertext(g, par.cts[i]),
			) {
				t.Fatalf("workers=%d: ciphertext %d differs from sequential", workers, i)
			}
		}
		if len(par.proof.Wrong) != len(seq.proof.Wrong) {
			t.Fatalf("workers=%d: %d revelations, sequential %d",
				workers, len(par.proof.Wrong), len(seq.proof.Wrong))
		}
		for i, w := range seq.proof.Wrong {
			p := par.proof.Wrong[i]
			if p.Index != w.Index || p.Plain.InRange != w.Plain.InRange || p.Plain.Value != w.Plain.Value {
				t.Fatalf("workers=%d: revelation %d differs from sequential", workers, i)
			}
			if !g.Equal(p.Proof.A, w.Proof.A) || !g.Equal(p.Proof.B, w.Proof.B) ||
				p.Proof.Z.Cmp(w.Proof.Z) != 0 {
				t.Fatalf("workers=%d: VPKE transcript %d differs from sequential", workers, i)
			}
		}
	}
}

// TestProveOpenedMatchesProve: a quality proof built from decryptions the
// caller already holds is byte-for-byte Prove's for the same randomness
// stream — golden answers right, wrong in range and out of range.
func TestProveOpenedMatchesProve(t *testing.T) {
	g := group.TestSchnorr()
	sk, err := elgamal.KeyGen(g, stream(1))
	if err != nil {
		t.Fatal(err)
	}
	st := poqoea.Statement{
		GoldenIndices: []int{0, 3, 5, 8},
		GoldenAnswers: []int64{1, 0, 2, 1},
		RangeSize:     4,
	}
	answers := []int64{1, 0, 0, 2, 0, 9, 0, 0, 3, 0} // right, wrong, out of range, wrong
	cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, stream(2))
	if err != nil {
		t.Fatal(err)
	}
	table := elgamal.NewShortLogTable(g, st.RangeSize)
	plains := sk.DecryptMany(table, cts)

	chi, want, err := poqoea.Prove(sk, cts, st, stream(3))
	if err != nil {
		t.Fatal(err)
	}
	gotChi, got, err := poqoea.ProveOpened(sk, cts, plains, st, stream(3))
	if err != nil {
		t.Fatal(err)
	}
	if chi != 1 || gotChi != chi || len(want.Wrong) != 3 || len(got.Wrong) != len(want.Wrong) {
		t.Fatalf("Prove: χ=%d with %d revelations; ProveOpened: χ=%d with %d",
			chi, len(want.Wrong), gotChi, len(got.Wrong))
	}
	for i, w := range want.Wrong {
		o := got.Wrong[i]
		if o.Index != w.Index || o.Plain.InRange != w.Plain.InRange || o.Plain.Value != w.Plain.Value ||
			!g.Equal(o.Plain.Element, w.Plain.Element) ||
			!bytes.Equal(vpke.MarshalProof(g, o.Proof), vpke.MarshalProof(g, w.Proof)) {
			t.Fatalf("revelation %d: ProveOpened differs from Prove", i)
		}
	}
	if !poqoea.Verify(&sk.PublicKey, cts, gotChi, got, st) {
		t.Fatal("ProveOpened proof rejected")
	}
	if _, _, err := poqoea.ProveOpened(sk, cts, plains[1:], st, stream(3)); err == nil {
		t.Fatal("ProveOpened accepted a plaintext vector of the wrong length")
	}
}

// TestProveOpenedDrawsOneNoncePerGolden: ProveOpened consumes exactly one
// RandomScalar draw per golden standard, whether it proves all of them
// (every answer wrong), some or none (every answer right), so the
// requester's randomness stream, and every transcript after the proof,
// are those of a prover that proves every golden answer.
func TestProveOpenedDrawsOneNoncePerGolden(t *testing.T) {
	g := group.TestSchnorr()
	sk, err := elgamal.KeyGen(g, stream(1))
	if err != nil {
		t.Fatal(err)
	}
	st := poqoea.Statement{
		GoldenIndices: []int{0, 3, 5, 8},
		GoldenAnswers: []int64{1, 0, 2, 1},
		RangeSize:     4,
	}
	table := elgamal.NewShortLogTable(g, st.RangeSize)
	for _, tc := range []struct {
		answers []int64
		wrong   int
	}{
		{[]int64{1, 0, 0, 0, 0, 2, 0, 0, 1, 0}, 0},
		{[]int64{1, 0, 0, 2, 0, 9, 0, 0, 3, 0}, 3},
		{[]int64{0, 0, 0, 1, 0, 1, 0, 0, 0, 0}, 4},
	} {
		cts, err := poqoea.EncryptAnswers(&sk.PublicKey, tc.answers, stream(2))
		if err != nil {
			t.Fatal(err)
		}
		rnd := stream(3)
		chi, pf, err := poqoea.ProveOpened(sk, cts, sk.DecryptMany(table, cts), st, rnd)
		if err != nil {
			t.Fatal(err)
		}
		if chi != len(st.GoldenIndices)-tc.wrong || len(pf.Wrong) != tc.wrong {
			t.Fatalf("%v: χ = %d with %d revelations, want %d wrong", tc.answers, chi, len(pf.Wrong), tc.wrong)
		}
		if !poqoea.Verify(&sk.PublicKey, cts, chi, pf, st) {
			t.Fatalf("%v: proof rejected", tc.answers)
		}
		ref := stream(3)
		for range st.GoldenIndices {
			if _, err := group.RandomScalar(g, ref); err != nil {
				t.Fatal(err)
			}
		}
		got, _ := group.RandomScalar(g, rnd)
		want, _ := group.RandomScalar(g, ref)
		if got.Cmp(want) != 0 {
			t.Fatalf("%v: the draw after ProveOpened is not the draw after %d nonces", tc.answers, len(st.GoldenIndices))
		}
	}
}
