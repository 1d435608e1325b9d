package batch

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/vpke"
)

// fixture builds n valid VPKE statements over g.
func fixture(t *testing.T, g group.Group, n int) (*elgamal.PrivateKey, []VPKEStatement) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	sk, err := elgamal.KeyGen(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	sts := make([]VPKEStatement, n)
	for i := range sts {
		ct, _, err := sk.PublicKey.Encrypt(int64(i%5), rng)
		if err != nil {
			t.Fatal(err)
		}
		plain, pi, err := vpke.Prove(sk, ct, 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		sts[i] = VPKEStatement{H: sk.H, Gm: plain.Element, Ct: ct, Proof: pi}
	}
	return sk, sts
}

// corrupt returns a copy of the statement with a tampered response scalar.
func corrupt(g group.Group, st VPKEStatement) VPKEStatement {
	z := new(big.Int).Add(st.Proof.Z, big.NewInt(1))
	z.Mod(z, g.Order())
	st.Proof = &vpke.Proof{A: st.Proof.A, B: st.Proof.B, Z: z}
	return st
}

func groups() map[string]group.Group {
	return map[string]group.Group{
		"schnorr": group.TestSchnorr(),
		"bn254":   group.BN254G1(),
	}
}

func TestVerifyVPKEAllValid(t *testing.T) {
	for name, g := range groups() {
		t.Run(name, func(t *testing.T) {
			n := 16
			if name == "bn254" {
				n = 6 // keep the curve fixture cheap
			}
			_, sts := fixture(t, g, n)
			ok, bad := VerifyVPKE(g, sts)
			if !ok || len(bad) != 0 {
				t.Errorf("valid batch rejected: ok=%v bad=%v", ok, bad)
			}
		})
	}
}

// TestVerifyVPKESingleCorruption is the headline soundness requirement: a
// batch containing exactly one corrupted proof must fail, and bisection
// must finger exactly that index.
func TestVerifyVPKESingleCorruption(t *testing.T) {
	g := group.TestSchnorr()
	_, sts := fixture(t, g, 16)
	for _, evil := range []int{0, 7, 15} {
		tampered := append([]VPKEStatement{}, sts...)
		tampered[evil] = corrupt(g, sts[evil])
		ok, bad := VerifyVPKE(g, tampered)
		if ok {
			t.Fatalf("batch with corrupted proof %d accepted", evil)
		}
		if !reflect.DeepEqual(bad, []int{evil}) {
			t.Errorf("bisection fingered %v, want [%d]", bad, evil)
		}
	}
}

func TestVerifyVPKEMultipleCorruptions(t *testing.T) {
	g := group.TestSchnorr()
	_, sts := fixture(t, g, 16)
	evil := []int{1, 2, 9, 15}
	for _, i := range evil {
		sts[i] = corrupt(g, sts[i])
	}
	ok, bad := VerifyVPKE(g, sts)
	if ok {
		t.Fatal("batch with four corrupted proofs accepted")
	}
	if !reflect.DeepEqual(bad, evil) {
		t.Errorf("bisection fingered %v, want %v", bad, evil)
	}
}

// TestVerifyVPKEMatchesPerProof checks verdict-for-verdict agreement with
// the per-proof verifier on a mixed batch, including malformed statements.
func TestVerifyVPKEMatchesPerProof(t *testing.T) {
	for name, g := range groups() {
		t.Run(name, func(t *testing.T) {
			n := 10
			if name == "bn254" {
				n = 5
			}
			_, sts := fixture(t, g, n)
			sts[1] = corrupt(g, sts[1])
			sts[3].Gm = g.ScalarBaseMul(big.NewInt(999)) // wrong plaintext claim
			badShape := sts[4]
			badShape.Proof = &vpke.Proof{A: badShape.Proof.A, B: badShape.Proof.B,
				Z: new(big.Int).Add(g.Order(), big.NewInt(1))} // non-canonical Z
			sts[4] = badShape

			var want []int
			for i := range sts {
				pk := &elgamal.PublicKey{Group: g, H: sts[i].H}
				if !vpke.VerifyElement(pk, sts[i].Gm, sts[i].Ct, sts[i].Proof) {
					want = append(want, i)
				}
			}
			ok, bad := VerifyVPKE(g, sts)
			if ok != (len(want) == 0) || !reflect.DeepEqual(bad, want) {
				t.Errorf("batch verdicts %v diverge from per-proof verdicts %v", bad, want)
			}
		})
	}
}

func TestVerifyVPKESingleStatement(t *testing.T) {
	g := group.TestSchnorr()
	_, sts := fixture(t, g, 1)
	if ok, bad := VerifyVPKE(g, sts); !ok || len(bad) != 0 {
		t.Errorf("single valid statement rejected: %v", bad)
	}
	sts[0] = corrupt(g, sts[0])
	if ok, bad := VerifyVPKE(g, sts); ok || !reflect.DeepEqual(bad, []int{0}) {
		t.Errorf("single corrupted statement: ok=%v bad=%v", ok, bad)
	}
}

func TestCoefficientsDeterministicDistinct(t *testing.T) {
	order := group.TestSchnorr().Order()
	a := Coefficients([]byte("t"), "l", 64, order)
	b := Coefficients([]byte("t"), "l", 64, order)
	if !reflect.DeepEqual(a, b) {
		t.Error("coefficient derivation is not deterministic")
	}
	// Every exponent must be usable in a fold: nonzero (a zero erases its
	// statement), below the order and pairwise distinct (duplicates let two
	// crafted invalid statements cancel).
	seen := make(map[string]bool, len(a))
	for i, c := range a {
		if c.Sign() <= 0 || c.Cmp(order) >= 0 {
			t.Errorf("coefficient %d = %v is outside [1, order)", i, c)
		}
		if seen[c.String()] {
			t.Errorf("coefficient %d = %v duplicated", i, c)
		}
		seen[c.String()] = true
	}
	c := Coefficients([]byte("t"), "other-label", 64, order)
	if reflect.DeepEqual(a, c) {
		t.Error("distinct labels produced identical coefficients")
	}
}

func TestGenericMSMMatchesNaive(t *testing.T) {
	for name, g := range groups() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			n := 40
			if name == "bn254" {
				n = 10
			}
			points := make([]group.Element, n)
			scalars := make([]*big.Int, n)
			for i := range points {
				points[i] = g.ScalarBaseMul(new(big.Int).Rand(rng, g.Order()))
				scalars[i] = new(big.Int).Rand(rng, g.Order())
			}
			points[2] = nil
			scalars[3] = nil
			want := g.Identity()
			for i := range points {
				if points[i] == nil || scalars[i] == nil {
					continue
				}
				want = g.Add(want, g.ScalarMul(points[i], scalars[i]))
			}
			// Exercise both the dispatching MSM (native for bn254) and the
			// generic interface core.
			if got := MSM(g, points, scalars); !g.Equal(got, want) {
				t.Error("MSM mismatch")
			}
			if got := genericMSM(g, points, scalars); !g.Equal(got, want) {
				t.Error("genericMSM mismatch")
			}
		})
	}
}

func TestResolve(t *testing.T) {
	if Resolve(0) || Resolve(-1) || !Resolve(1) || !Resolve(2) {
		t.Error("Resolve must batch exactly for positive overrides")
	}
}
