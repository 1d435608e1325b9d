package poqoea_test

import (
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/poqoea"
)

// imagenetStatement mirrors the paper's §VI task: 106 binary questions with
// 6 golden standards.
func imagenetStatement() poqoea.Statement {
	return poqoea.Statement{
		GoldenIndices: []int{3, 17, 42, 61, 88, 105},
		GoldenAnswers: []int64{1, 0, 1, 1, 0, 1},
		RangeSize:     2,
	}
}

// answersWithQuality constructs a 106-answer vector whose quality is
// exactly q against imagenetStatement.
func answersWithQuality(st poqoea.Statement, q int, n int) []int64 {
	answers := make([]int64, n)
	for j, idx := range st.GoldenIndices {
		if j < q {
			answers[idx] = st.GoldenAnswers[j]
		} else {
			answers[idx] = 1 - st.GoldenAnswers[j] // flip a binary answer
		}
	}
	return answers
}

// setup draws a key pair from the test's seeded reader, so keys drawn in
// turn by one test still differ.
func setup(t *testing.T, rnd io.Reader) (*elgamal.PrivateKey, group.Group) {
	t.Helper()
	g := group.TestSchnorr()
	sk, err := elgamal.KeyGen(g, rnd)
	if err != nil {
		t.Fatalf("KeyGen: %v", err)
	}
	return sk, g
}

func TestCompletenessAllQualities(t *testing.T) {
	rnd := drbg.New(21, "TestCompletenessAllQualities")
	sk, _ := setup(t, rnd)
	st := imagenetStatement()
	for q := 0; q <= len(st.GoldenIndices); q++ {
		answers := answersWithQuality(st, q, 106)
		if got := poqoea.Quality(answers, st); got != q {
			t.Fatalf("constructed vector has quality %d, want %d", got, q)
		}
		cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, rnd)
		if err != nil {
			t.Fatal(err)
		}
		quality, pf, err := poqoea.Prove(sk, cts, st, rnd)
		if err != nil {
			t.Fatalf("Prove: %v", err)
		}
		if quality != q {
			t.Errorf("Prove reported quality %d, want %d", quality, q)
		}
		if len(pf.Wrong) != len(st.GoldenIndices)-q {
			t.Errorf("proof has %d revelations, want %d", len(pf.Wrong), len(st.GoldenIndices)-q)
		}
		if !poqoea.Verify(&sk.PublicKey, cts, quality, pf, st) {
			t.Errorf("honest proof for quality %d rejected", q)
		}
	}
}

// Upper-bound soundness: the requester cannot get a claim below the true
// quality accepted (that would underpay the worker).
func TestUpperBoundSoundness(t *testing.T) {
	rnd := drbg.New(22, "TestUpperBoundSoundness")
	sk, _ := setup(t, rnd)
	st := imagenetStatement()
	trueQuality := 4
	answers := answersWithQuality(st, trueQuality, 106)
	cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, rnd)
	if err != nil {
		t.Fatal(err)
	}
	quality, pf, err := poqoea.Prove(sk, cts, st, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if quality != trueQuality {
		t.Fatalf("true quality = %d, want %d", quality, trueQuality)
	}
	// Claiming any χ < trueQuality with the honest proof must fail: there
	// are only |G|−trueQuality wrong answers to reveal.
	for claim := 0; claim < trueQuality; claim++ {
		if poqoea.Verify(&sk.PublicKey, cts, claim, pf, st) {
			t.Errorf("underclaimed quality %d accepted (true %d)", claim, trueQuality)
		}
	}
	// Overclaiming χ > trueQuality verifies (it is an upper bound) — and
	// only ever helps the worker, never hurts them.
	for claim := trueQuality; claim <= len(st.GoldenIndices); claim++ {
		if !poqoea.Verify(&sk.PublicKey, cts, claim, pf, st) {
			t.Errorf("upper bound %d rejected (true %d)", claim, trueQuality)
		}
	}
}

// A cheating requester cannot fabricate a wrong-answer revelation for a
// question the worker answered correctly.
func TestCannotForgeWrongAnswer(t *testing.T) {
	rnd := drbg.New(23, "TestCannotForgeWrongAnswer")
	sk, g := setup(t, rnd)
	st := imagenetStatement()
	answers := answersWithQuality(st, 6, 106) // all golden answers correct
	cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, rnd)
	if err != nil {
		t.Fatal(err)
	}
	_, honest, err := poqoea.Prove(sk, cts, st, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(honest.Wrong) != 0 {
		t.Fatalf("perfect answers produced %d revelations", len(honest.Wrong))
	}
	// Forge: claim question 3 (golden, truth 1, worker answered 1) decrypts
	// to 0, reusing a proof generated for a different ciphertext.
	otherCt, _, err := sk.Encrypt(0, rnd)
	if err != nil {
		t.Fatal(err)
	}
	stolen, pi, err := poqoea.Prove(sk, []elgamal.Ciphertext{otherCt}, poqoea.Statement{
		GoldenIndices: []int{0}, GoldenAnswers: []int64{1}, RangeSize: 2,
	}, rnd)
	if err != nil || stolen != 0 || len(pi.Wrong) != 1 {
		t.Fatalf("setup for forgery failed: %v %d", err, stolen)
	}
	forged := &poqoea.Proof{Wrong: []poqoea.WrongAnswer{{
		Index: 3,
		Plain: pi.Wrong[0].Plain,
		Proof: pi.Wrong[0].Proof,
	}}}
	if poqoea.Verify(&sk.PublicKey, cts, 5, forged, st) {
		t.Error("forged revelation accepted: worker would be underpaid")
	}
	_ = g
}

func TestRejectMalformedProofs(t *testing.T) {
	rnd := drbg.New(24, "TestRejectMalformedProofs")
	sk, _ := setup(t, rnd)
	st := imagenetStatement()
	answers := answersWithQuality(st, 3, 106)
	cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, rnd)
	if err != nil {
		t.Fatal(err)
	}
	quality, pf, err := poqoea.Prove(sk, cts, st, rnd)
	if err != nil {
		t.Fatal(err)
	}

	if poqoea.Verify(&sk.PublicKey, cts, quality, nil, st) {
		t.Error("nil proof accepted")
	}
	if poqoea.Verify(&sk.PublicKey, cts, -1, pf, st) {
		t.Error("negative quality accepted")
	}
	if poqoea.Verify(&sk.PublicKey, cts, len(st.GoldenIndices)+1, pf, st) {
		t.Error("quality above |G| accepted")
	}

	// Duplicate revelation indices must be rejected (double counting).
	dup := &poqoea.Proof{Wrong: append(append([]poqoea.WrongAnswer{}, pf.Wrong...), pf.Wrong[0])}
	if poqoea.Verify(&sk.PublicKey, cts, quality-1, dup, st) {
		t.Error("duplicate revelation double-counted")
	}

	// Non-golden index must be rejected.
	bad := &poqoea.Proof{Wrong: append([]poqoea.WrongAnswer{}, pf.Wrong...)}
	bad.Wrong[0].Index = 5 // not a golden index
	if poqoea.Verify(&sk.PublicKey, cts, quality, bad, st) {
		t.Error("non-golden revelation accepted")
	}
}

func TestOutOfRangeAnswerRevealed(t *testing.T) {
	rnd := drbg.New(25, "TestOutOfRangeAnswerRevealed")
	sk, _ := setup(t, rnd)
	st := imagenetStatement()
	answers := answersWithQuality(st, 6, 106)
	answers[st.GoldenIndices[0]] = 77 // out of the binary range
	cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, rnd)
	if err != nil {
		t.Fatal(err)
	}
	quality, pf, err := poqoea.Prove(sk, cts, st, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if quality != 5 {
		t.Fatalf("quality = %d, want 5 (one out-of-range golden answer)", quality)
	}
	if len(pf.Wrong) != 1 || pf.Wrong[0].Plain.InRange {
		t.Fatalf("expected one out-of-range revelation, got %+v", pf.Wrong)
	}
	if !poqoea.Verify(&sk.PublicKey, cts, quality, pf, st) {
		t.Error("proof with out-of-range revelation rejected")
	}
}

func TestStatementValidation(t *testing.T) {
	cases := []struct {
		name string
		st   poqoea.Statement
		n    int
	}{
		{"empty golden", poqoea.Statement{RangeSize: 2}, 10},
		{"mismatched lengths", poqoea.Statement{GoldenIndices: []int{1}, GoldenAnswers: []int64{0, 1}, RangeSize: 2}, 10},
		{"index out of bounds", poqoea.Statement{GoldenIndices: []int{10}, GoldenAnswers: []int64{0}, RangeSize: 2}, 10},
		{"duplicate index", poqoea.Statement{GoldenIndices: []int{1, 1}, GoldenAnswers: []int64{0, 1}, RangeSize: 2}, 10},
		{"tiny range", poqoea.Statement{GoldenIndices: []int{1}, GoldenAnswers: []int64{0}, RangeSize: 1}, 10},
		{"golden answer out of range", poqoea.Statement{GoldenIndices: []int{1}, GoldenAnswers: []int64{5}, RangeSize: 2}, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.st.Validate(tc.n); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

// Property: for random golden layouts and random answers, Prove's reported
// quality always equals the plaintext Quality function and verifies.
func TestProveMatchesQualityQuick(t *testing.T) {
	rnd := drbg.New(26, "TestProveMatchesQualityQuick")
	sk, _ := setup(t, rnd)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		numGolden := 1 + rng.Intn(4)
		perm := rng.Perm(n)[:numGolden]
		st := poqoea.Statement{RangeSize: 4}
		for _, idx := range perm {
			st.GoldenIndices = append(st.GoldenIndices, idx)
			st.GoldenAnswers = append(st.GoldenAnswers, int64(rng.Intn(4)))
		}
		answers := make([]int64, n)
		for i := range answers {
			answers[i] = int64(rng.Intn(4))
		}
		cts, err := poqoea.EncryptAnswers(&sk.PublicKey, answers, rnd)
		if err != nil {
			return false
		}
		quality, pf, err := poqoea.Prove(sk, cts, st, rnd)
		if err != nil {
			return false
		}
		if quality != poqoea.Quality(answers, st) {
			return false
		}
		return poqoea.Verify(&sk.PublicKey, cts, quality, pf, st)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
