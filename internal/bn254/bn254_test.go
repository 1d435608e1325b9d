package bn254

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestG1GeneratorOnCurve(t *testing.T) {
	g := G1Generator()
	if !g.IsOnCurve() {
		t.Fatal("G1 generator not on curve")
	}
	if !g.ScalarMul(Order()).IsInfinity() {
		t.Fatal("G1 generator does not have order r")
	}
}

func TestG2GeneratorOnCurve(t *testing.T) {
	g := G2Generator()
	if !g.IsOnCurve() {
		t.Fatal("G2 generator not on twist")
	}
	if !g.IsInSubgroup() {
		t.Fatal("G2 generator does not have order r")
	}
	if out := twistPointOutsideSubgroup(t); out.IsInSubgroup() {
		t.Fatal("IsInSubgroup accepts a twist point of order other than r")
	}
}

func TestG1GroupLaws(t *testing.T) {
	g := G1Generator()
	a := g.ScalarMul(big.NewInt(7))
	b := g.ScalarMul(big.NewInt(11))
	c := g.ScalarMul(big.NewInt(13))

	if !a.Add(b).Equal(b.Add(a)) {
		t.Error("G1 addition is not commutative")
	}
	if !a.Add(b).Add(c).Equal(a.Add(b.Add(c))) {
		t.Error("G1 addition is not associative")
	}
	if !a.Add(G1Infinity()).Equal(a) {
		t.Error("G1 identity law fails")
	}
	if !a.Add(a.Neg()).IsInfinity() {
		t.Error("G1 inverse law fails")
	}
	phi := glv().phi(a) // same y as a, different x
	if a.Equal(a.Neg()) || a.Equal(&phi) || a.Equal(b) || a.Equal(G1Infinity()) {
		t.Error("G1 Equal reports distinct points equal")
	}
	if !a.Add(a).Equal(g.ScalarMul(big.NewInt(14))) {
		t.Error("7G + 7G != 14G")
	}
	if !g.ScalarMul(big.NewInt(18)).Equal(a.Add(b)) {
		t.Error("7G + 11G != 18G")
	}
}

func TestG1ScalarMulProperties(t *testing.T) {
	g := G1Generator()
	f := func(a, b uint32) bool {
		ka := big.NewInt(int64(a))
		kb := big.NewInt(int64(b))
		sum := new(big.Int).Add(ka, kb)
		return g.ScalarMul(ka).Add(g.ScalarMul(kb)).Equal(g.ScalarMul(sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestG1ScalarMulNegAndMod(t *testing.T) {
	g := G1Generator()
	k := randScalars(1, 3)[0]
	negK := new(big.Int).Neg(k)
	if !g.ScalarMul(negK).Equal(g.ScalarMul(k).Neg()) {
		t.Error("(-k)G != -(kG)")
	}
	kPlusR := new(big.Int).Add(k, Order())
	if !g.ScalarMul(kPlusR).Equal(g.ScalarMul(k)) {
		t.Error("(k+r)G != kG")
	}
}

func TestG1Marshal(t *testing.T) {
	pts := []*G1{G1Generator(), G1Generator().ScalarMul(randScalars(1, 4)[0]), G1Infinity()}
	for _, pt := range pts {
		enc := pt.Marshal()
		dec, err := UnmarshalG1(enc)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !dec.Equal(pt) {
			t.Errorf("roundtrip mismatch for %v", pt)
		}
	}
	if _, err := UnmarshalG1(make([]byte, 63)); err == nil {
		t.Error("expected length error")
	}
	bad := make([]byte, 64)
	bad[31] = 5 // x=5, y=0: not on curve
	if _, err := UnmarshalG1(bad); err == nil {
		t.Error("expected off-curve error")
	}
}

// unmarshalCases are G1 encodings at and around every rule of the decoder:
// points and their negations, off-curve pairs, coordinates equal to p, to
// x + p and to 2²⁵⁶−1, a zero coordinate beside a nonzero one, the identity
// and lengths other than 64.
func unmarshalCases() [][]byte {
	p := P()
	enc := func(x, y *big.Int) []byte {
		out := make([]byte, 64)
		x.FillBytes(out[:32])
		y.FillBytes(out[32:])
		return out
	}
	zero, one := big.NewInt(0), big.NewInt(1)
	max := new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)
	cases := [][]byte{nil, {}, make([]byte, 63), make([]byte, 65), make([]byte, 128), make([]byte, 64)}
	// No point has x = 0: (0, ±√3) would have order 3, and r is prime.
	cases = append(cases, enc(p, zero), enc(zero, p), enc(max, max), enc(zero, max), enc(max, zero),
		enc(zero, big.NewInt(2)), enc(one, zero), enc(one, big.NewInt(2)), enc(p, big.NewInt(2)))
	rng := rand.New(rand.NewSource(29))
	for _, k := range randScalars(6, 31) {
		pt := G1Generator().ScalarMul(k)
		x, y := pt.bigAffine()
		cases = append(cases, pt.Marshal(), pt.Neg().Marshal(),
			append(pt.Marshal(), 0), pt.Marshal()[1:],
			enc(x, new(big.Int).Add(y, one)), enc(x, zero),
			enc(new(big.Int).Add(x, p), y), enc(x, new(big.Int).Add(y, p)),
			enc(x, p), enc(p, y), enc(x, max), enc(max, y),
			enc(new(big.Int).Rand(rng, p), new(big.Int).Rand(rng, p)))
	}
	return cases
}

// TestUnmarshalG1MatchesReference: UnmarshalG1 accepts exactly what the
// oracle's big.Int decoder accepts, decodes the same point, re-encodes it
// to the same bytes, and every rejection matches ErrInvalidPoint.
func TestUnmarshalG1MatchesReference(t *testing.T) {
	for _, data := range unmarshalCases() {
		want, ok := oracleUnmarshalG1(data)
		got, err := UnmarshalG1(data)
		switch {
		case ok != (err == nil):
			t.Fatalf("%x: reference accepts=%v, UnmarshalG1 err=%v", data, ok, err)
		case !ok && !errors.Is(err, ErrInvalidPoint):
			t.Fatalf("%x: error %v does not match ErrInvalidPoint", data, err)
		case ok && !got.Equal(want.g1()):
			t.Fatalf("%x: decoded %v, reference %v", data, got, want.g1())
		case ok && !bytes.Equal(got.Marshal(), data):
			t.Fatalf("%x: re-encodes as %x", data, got.Marshal())
		}
	}
}

// FuzzUnmarshalG1: decoding arbitrary bytes never panics, rejects with
// ErrInvalidPoint exactly what the reference decoder rejects, and every
// accepted input is on the curve and re-encodes to the same 64 bytes.
func FuzzUnmarshalG1(f *testing.F) {
	for _, data := range unmarshalCases() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, ok := oracleUnmarshalG1(data)
		pt, err := UnmarshalG1(data)
		if err != nil {
			if ok || !errors.Is(err, ErrInvalidPoint) {
				t.Fatalf("%x: rejected with %v (reference accepts: %v)", data, err, ok)
			}
			return
		}
		if !ok || !pt.IsOnCurve() || !bytes.Equal(pt.Marshal(), data) {
			t.Fatalf("%x: accepted as %v (reference accepts: %v)", data, pt, ok)
		}
	})
}

func TestG2GroupLaws(t *testing.T) {
	g := G2Generator()
	a := g.ScalarMul(big.NewInt(5))
	b := g.ScalarMul(big.NewInt(9))
	if !a.Add(b).Equal(g.ScalarMul(big.NewInt(14))) {
		t.Error("5H + 9H != 14H")
	}
	if !a.Add(a.Neg()).IsInfinity() {
		t.Error("G2 inverse law fails")
	}
	if !a.Double().Equal(a.Add(a)) {
		t.Error("G2 double != add self")
	}
	if !a.Sub(a).IsInfinity() {
		t.Error("G2 a-a != 0")
	}
}

func TestG2Marshal(t *testing.T) {
	pts := []*G2{G2Generator(), G2Generator().ScalarMul(big.NewInt(12345)), G2Infinity()}
	for _, pt := range pts {
		dec, err := UnmarshalG2(pt.Marshal())
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !dec.Equal(pt) {
			t.Error("G2 roundtrip mismatch")
		}
	}
}

// fp2Sqrt returns a square root of a in Fp2 for p ≡ 3 (mod 4), by
// Algorithm 9 of Adj and Rodríguez-Henríquez (2012); ok is false if a is
// not a square.
func fp2Sqrt(a fp2Elem) (fp2Elem, bool) {
	p := P()
	a1 := fp2ExpP(a, new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(3)), 2), p)
	alpha := fp2MulP(fp2SquareP(a1, p), a, p)
	x0 := fp2MulP(a1, a, p)
	var x fp2Elem
	if fp2Equal(alpha, fp2NegP(fp2One(), p)) {
		x = fp2Elem{A0: fpNeg(x0.A1, p), A1: new(big.Int).Set(x0.A0)} // i·x0
	} else {
		b := fp2ExpP(fp2AddP(fp2One(), alpha, p), new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1), p)
		x = fp2MulP(b, x0, p)
	}
	return x, fp2Equal(fp2SquareP(x, p), a)
}

// twistPointOutsideSubgroup returns the twist point with x = 2 + i: on the
// curve, but of an order other than r (the twist's cofactor is not 1).
func twistPointOutsideSubgroup(t *testing.T) *G2 {
	t.Helper()
	p := P()
	x := fp2Elem{A0: big.NewInt(2), A1: big.NewInt(1)}
	rhs := fp2AddP(fp2MulP(fp2SquareP(x, p), x, p), params().b2, p)
	y, ok := fp2Sqrt(rhs)
	if !ok {
		t.Fatal("x = 2 + i has no point on the twist")
	}
	pt := &G2{X: x, Y: y}
	if !pt.IsOnCurve() {
		t.Fatal("constructed point is off the twist")
	}
	return pt
}

// TestUnmarshalG2Rejects: UnmarshalG2 rejects, with ErrInvalidPoint, a
// twist point outside the order-r subgroup, any coordinate ≥ p (X.A0 + p
// among them, a second encoding of the generator), a pair off the twist
// and every length but 128.
func TestUnmarshalG2Rejects(t *testing.T) {
	p := P()
	gen := G2Generator().Marshal()
	withCoord := func(i int, v *big.Int) []byte {
		out := append([]byte{}, gen...)
		v.FillBytes(out[32*i : 32*(i+1)])
		return out
	}
	coord := func(i int) *big.Int { return new(big.Int).SetBytes(gen[32*i : 32*(i+1)]) }
	cases := map[string][]byte{
		"outside subgroup": twistPointOutsideSubgroup(t).Marshal(),
		"X.A0 + p":         withCoord(1, new(big.Int).Add(coord(1), p)),
		"X.A1 = p":         withCoord(0, p),
		"Y.A1 + p":         withCoord(2, new(big.Int).Add(coord(2), p)),
		"Y.A0 = 2^256−1":   withCoord(3, new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))),
		"off the twist":    withCoord(3, new(big.Int).Add(coord(3), big.NewInt(1))),
		"127 bytes":        gen[:127],
		"129 bytes":        append(append([]byte{}, gen...), 0),
		"empty":            nil,
	}
	for name, data := range cases {
		if pt, err := UnmarshalG2(data); !errors.Is(err, ErrInvalidPoint) {
			t.Errorf("%s: got %v, %v; want ErrInvalidPoint", name, pt, err)
		}
	}
	if pt, err := UnmarshalG2(gen); err != nil || !pt.Equal(G2Generator()) {
		t.Fatalf("generator: %v, %v", pt, err)
	}
}

// FuzzUnmarshalG2: decoding arbitrary bytes never panics, every rejection
// matches ErrInvalidPoint, and every accepted input is on the twist, in
// the order-r subgroup, and re-encodes to the same 128 bytes.
func FuzzUnmarshalG2(f *testing.F) {
	gen := G2Generator()
	f.Add(gen.Marshal())
	f.Add(gen.ScalarMul(big.NewInt(3)).Marshal())
	f.Add(G2Infinity().Marshal())
	f.Add(gen.Marshal()[:127])
	bad := gen.Marshal()
	bad[127] ^= 1
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		pt, err := UnmarshalG2(data)
		if err != nil {
			if !errors.Is(err, ErrInvalidPoint) {
				t.Fatalf("%x: rejected with %v", data, err)
			}
			return
		}
		if !pt.IsOnCurve() || !pt.IsInSubgroup() || !bytes.Equal(pt.Marshal(), data) {
			t.Fatalf("%x: accepted as %v", data, pt)
		}
	})
}

func TestFp2Arithmetic(t *testing.T) {
	p := params().P
	a := fp2Elem{A0: big.NewInt(3), A1: big.NewInt(4)}
	inv := fp2InvP(a, p)
	if !fp2Equal(fp2MulP(a, inv, p), fp2One()) {
		t.Error("fp2 inverse fails")
	}
	if !fp2Equal(fp2SquareP(a, p), fp2MulP(a, a, p)) {
		t.Error("fp2 square != mul self")
	}
	// ξ·a must match generic multiplication by (9+i).
	xi := params().xi
	if !fp2Equal(fp2MulXiP(a, p), fp2MulP(xi, a, p)) {
		t.Error("mulXi mismatch")
	}
}

func TestFp6Fp12Inverse(t *testing.T) {
	p := params().P
	a := fp6Elem{
		B0: fp2Elem{A0: big.NewInt(3), A1: big.NewInt(1)},
		B1: fp2Elem{A0: big.NewInt(7), A1: big.NewInt(2)},
		B2: fp2Elem{A0: big.NewInt(9), A1: big.NewInt(5)},
	}
	if !fp6Equal(fp6MulP(a, fp6InvP(a, p), p), fp6One()) {
		t.Error("fp6 inverse fails")
	}
	x := fp12Elem{C0: a, C1: fp6Elem{
		B0: fp2Elem{A0: big.NewInt(11), A1: big.NewInt(13)},
		B1: fp2Elem{A0: big.NewInt(17), A1: big.NewInt(19)},
		B2: fp2Elem{A0: big.NewInt(23), A1: big.NewInt(29)},
	}}
	if !fp12Equal(fp12MulP(x, fp12InvP(x, p), p), fp12One()) {
		t.Error("fp12 inverse fails")
	}
}

func TestFp6MulByV(t *testing.T) {
	p := params().P
	a := fp6Elem{
		B0: fp2Elem{A0: big.NewInt(3), A1: big.NewInt(1)},
		B1: fp2Elem{A0: big.NewInt(7), A1: big.NewInt(2)},
		B2: fp2Elem{A0: big.NewInt(9), A1: big.NewInt(5)},
	}
	v := fp6Elem{B0: fp2Zero(), B1: fp2One(), B2: fp2Zero()}
	if !fp6Equal(fp6MulByVP(a, p), fp6MulP(a, v, p)) {
		t.Error("mulByV mismatch")
	}
}

// TestPairingBilinearity is the critical correctness test for the whole
// pairing stack: e(aP, bQ) = e(P, Q)^(ab) = e(abP, Q) = e(P, abQ).
func TestPairingBilinearity(t *testing.T) {
	if testing.Short() {
		t.Skip("pairing test is slow")
	}
	g1 := G1Generator()
	g2 := G2Generator()
	a := big.NewInt(6)
	b := big.NewInt(7)
	ab := new(big.Int).Mul(a, b)

	base := Pair(g1, g2)
	if base.IsOne() {
		t.Fatal("e(G1, G2) is degenerate")
	}
	lhs := Pair(g1.ScalarMul(a), g2.ScalarMul(b))
	rhs := base.Exp(ab)
	if !lhs.Equal(rhs) {
		t.Fatal("bilinearity fails: e(aP,bQ) != e(P,Q)^ab")
	}
	if !lhs.Equal(Pair(g1.ScalarMul(ab), g2)) {
		t.Fatal("bilinearity fails: e(abP,Q) mismatch")
	}
}

func TestPairingCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("pairing test is slow")
	}
	g1 := G1Generator()
	g2 := G2Generator()
	// e(aG, bH) · e(−abG, H) = 1.
	a := big.NewInt(3)
	b := big.NewInt(5)
	ab := new(big.Int).Mul(a, b)
	ok := PairingCheck(
		[]*G1{g1.ScalarMul(a), g1.ScalarMul(ab).Neg()},
		[]*G2{g2.ScalarMul(b), g2},
	)
	if !ok {
		t.Fatal("valid pairing product rejected")
	}
	bad := PairingCheck(
		[]*G1{g1.ScalarMul(a), g1.ScalarMul(ab)},
		[]*G2{g2.ScalarMul(b), g2},
	)
	if bad {
		t.Fatal("invalid pairing product accepted")
	}
}

func TestPairingWithInfinity(t *testing.T) {
	if testing.Short() {
		t.Skip("pairing test is slow")
	}
	if !Pair(G1Infinity(), G2Generator()).IsOne() {
		t.Error("e(0, Q) != 1")
	}
	if !Pair(G1Generator(), G2Infinity()).IsOne() {
		t.Error("e(P, 0) != 1")
	}
}

func BenchmarkG1ScalarMul(b *testing.B) {
	k := mustBig("12345678901234567890123456789012345678901234567890")
	g := G1Generator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ScalarMul(k)
	}
}

func BenchmarkPairing(b *testing.B) {
	g1 := G1Generator()
	g2 := G2Generator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pair(g1, g2)
	}
}
