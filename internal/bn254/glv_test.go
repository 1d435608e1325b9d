package bn254

import (
	"math/big"
	"math/rand"
	"testing"
)

// oracleSplit is the big.Int GLV split the fixed-width one is checked
// against: c1 = round(b2·s/r) and c2 = round(−b1·s/r) by exact
// nearest-integer division, then k1 = s − c1·a1 − c2·a2 and
// k2 = −c1·b1 − c2·b2.
func oracleSplit(k *big.Int) (k1, k2 *big.Int) {
	g := glv()
	r := Order()
	s := new(big.Int).Mod(k, r)
	c1 := roundDiv(new(big.Int).Mul(g.b2, s), r)
	c2 := roundDiv(new(big.Int).Neg(new(big.Int).Mul(g.b1, s)), r)
	k1 = new(big.Int).Set(s)
	k1.Sub(k1, new(big.Int).Mul(c1, g.a1))
	k1.Sub(k1, new(big.Int).Mul(c2, g.a2))
	k2 = new(big.Int).Neg(new(big.Int).Mul(c1, g.b1))
	k2.Sub(k2, new(big.Int).Mul(c2, g.b2))
	return k1, k2
}

// roundDiv returns the nearest integer to n/d for d > 0 (ties round up),
// using floor division so negative numerators round correctly.
func roundDiv(n, d *big.Int) *big.Int {
	num := new(big.Int).Lsh(n, 1)
	num.Add(num, d)
	return num.Div(num, new(big.Int).Lsh(d, 1))
}

// halfBig reads a split half (magnitude and sign) as a big.Int.
func halfBig(m [2]uint64, neg bool) *big.Int {
	v := new(big.Int).SetUint64(m[1])
	v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(m[0]))
	if neg {
		v.Neg(v)
	}
	return v
}

// limbSplit runs the kernel's fixed-width split on k.
func limbSplit(k *big.Int) (k1, k2 *big.Int, ok bool) {
	s := scalarLimbs(k)
	m1, m2, neg1, neg2, ok := glv().split(&s)
	return halfBig(m1, neg1), halfBig(m2, neg2), ok
}

// checkSplit fails unless k's fixed-width split passed its soundness
// check, satisfies k1 + k2·λ ≡ k (mod r) and has halves of at most
// glvHalfBits bits.
func checkSplit(t *testing.T, k *big.Int) (k1, k2 *big.Int) {
	t.Helper()
	k1, k2, ok := limbSplit(k)
	if !ok {
		t.Fatalf("split of %s failed its soundness check", k)
	}
	r := Order()
	chk := new(big.Int).Mul(k2, glv().lambda)
	chk.Add(chk, k1).Sub(chk, k).Mod(chk, r)
	if chk.Sign() != 0 {
		t.Fatalf("k1 + k2·λ ≢ k for %s", k)
	}
	if k1.BitLen() > glvHalfBits || k2.BitLen() > glvHalfBits {
		t.Fatalf("split of %s too long: %d/%d bits", k, k1.BitLen(), k2.BitLen())
	}
	return k1, k2
}

// kernelScalars are the structured scalars plus values above 2^256 and
// negative ones of every size.
func kernelScalars() []*big.Int {
	r := Order()
	two256 := new(big.Int).Lsh(big.NewInt(1), 256)
	return append(structuredScalars(),
		new(big.Int).Add(two256, big.NewInt(3)),
		new(big.Int).Add(new(big.Int).Lsh(two256, 44), r),
		new(big.Int).Neg(r),
		new(big.Int).Neg(new(big.Int).Add(r, big.NewInt(1))),
		new(big.Int).Neg(two256),
	)
}

// TestGLVMatchesGeneric: the kernel's multiplication must agree with the
// affine oracle and the generic double-and-add ladder over structured and
// random scalars, for several bases including the identity.
func TestGLVMatchesGeneric(t *testing.T) {
	bases := []*G1{
		G1Generator(),
		G1Generator().ScalarMul(big.NewInt(0x5eed)),
		G1Infinity(),
	}
	for _, base := range bases {
		for _, k := range append(kernelScalars(), randScalars(24, 42)...) {
			want := affineLadder(base, k)
			if got := base.ScalarMul(k); !got.Equal(want) {
				t.Fatalf("GLV ScalarMul(%s) = %s, oracle = %s", k, got, want)
			}
			if got := genericScalarMul(base, new(big.Int).Mod(k, Order())); !got.Equal(want) {
				t.Fatalf("generic ladder(%s) = %s, oracle = %s", k, got, want)
			}
		}
	}
}

// TestGLVDecompose checks the fixed-width split directly: for every
// scalar, k1 + k2·λ ≡ k (mod r) with both halves within the size bound.
func TestGLVDecompose(t *testing.T) {
	for _, k := range append(kernelScalars(), randScalars(64, 99)...) {
		checkSplit(t, k)
	}
}

// TestWNAFDigits: every recoding is a width-5 NAF of its half (digits odd
// or zero, below 16 in magnitude, nonzero ones at least five positions
// apart, and summing back to the half), and over 2,000 seeded scalars the
// two halves have at most 45 nonzero digits on average: one mixed
// addition each, so this pins the ladder's count of additions.
func TestWNAFDigits(t *testing.T) {
	const n = 2000
	nonzero := 0
	for i, k := range append(randScalars(n, 4242), kernelScalars()...) {
		k1, k2 := checkSplit(t, k)
		var sc glvScalar
		s := scalarLimbs(k)
		sc.recode(&s)
		if sc.fallback || sc.n > glvDigits {
			t.Fatalf("recoding of %s: fallback %v, length %d", k, sc.fallback, sc.n)
		}
		for h, half := range []struct {
			d    *[glvDigits]int8
			want *big.Int
		}{{&sc.d1, k1}, {&sc.d2, k2}} {
			sum, last := new(big.Int), -glvWindow
			for j := glvDigits - 1; j >= 0; j-- {
				sum.Lsh(sum, 1)
				d := half.d[j]
				if d == 0 {
					continue
				}
				if d%2 == 0 || d >= 16 || d <= -16 {
					t.Fatalf("%s half %d: digit %d at %d", k, h, d, j)
				}
				if j >= sc.n || (last >= 0 && last-j < glvWindow) {
					t.Fatalf("%s half %d: digit at %d, previous at %d, length %d", k, h, j, last, sc.n)
				}
				last = j
				sum.Add(sum, big.NewInt(int64(d)))
				if i < n {
					nonzero++
				}
			}
			if sum.Cmp(half.want) != 0 {
				t.Fatalf("%s half %d: digits sum to %s, want %s", k, h, sum, half.want)
			}
		}
	}
	if mean := float64(nonzero) / n; mean > 45 {
		t.Fatalf("%.1f nonzero digits per scalar on average, want at most 45", mean)
	}
}

// TestG1ScalarMulManyAdd: every result of the span kernel equals the
// generic ladder plus the addend, for spans of 1 and 53 with nil scalars,
// nil and identity addends, nil and identity points, repeated point and
// scalar pointers, and kᵢ·Pᵢ = −Aᵢ.
func TestG1ScalarMulManyAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	r := Order()
	rnd := func() *big.Int { return new(big.Int).Rand(rng, r) }
	shared := G1Generator().ScalarMul(rnd())
	sharedK := rnd()
	for _, n := range []int{1, 2, 53} {
		points := make([]*G1, n)
		ks := make([]*big.Int, n)
		addends := make([]*G1, n)
		for i := range points {
			points[i] = G1Generator().ScalarMul(rnd())
			ks[i] = rnd()
			switch i % 4 {
			case 0:
				addends[i] = G1Generator().ScalarMul(rnd())
			case 1:
				addends[i] = G1Infinity()
			}
			switch i % 7 {
			case 1:
				points[i] = shared // runs of a repeated point pointer
			case 2:
				points[i] = shared
				ks[i] = sharedK
			case 3:
				ks[i] = sharedK // a repeated scalar pointer over another point
			case 4:
				ks[i] = nil
			case 5:
				points[i] = G1Infinity()
			case 6:
				points[i] = nil
			}
		}
		if n > 1 {
			// kᵢ·Pᵢ = −Aᵢ: the sum is the identity.
			ks[0] = big.NewInt(12345)
			addends[0] = points[0].ScalarMul(ks[0]).Neg()
		}
		check := func(name string, got []G1, addends []*G1) {
			t.Helper()
			if len(got) != n {
				t.Fatalf("%s n=%d: %d results", name, n, len(got))
			}
			for i := range got {
				want := G1Infinity()
				if !isIdentity(points[i]) && ks[i] != nil {
					want = genericScalarMul(points[i], new(big.Int).Mod(ks[i], r))
				}
				if addends != nil && addends[i] != nil {
					want = want.Add(addends[i])
				}
				if !got[i].Equal(want) {
					t.Fatalf("%s n=%d [%d]: got %v, want %v", name, n, i, &got[i], want)
				}
			}
		}
		check("with addends", G1ScalarMulManyAdd(points, ks, addends), addends)
		check("nil addends", G1ScalarMulManyAdd(points, ks, nil), nil)
		if n > 1 && !G1ScalarMulManyAdd(points, ks, addends)[0].Inf {
			t.Fatal("kP + (−kP) is not the identity")
		}
	}
}

// TestGLVEndomorphism verifies the derived constants: β³ = 1 in Fp, λ³ = 1
// in Zr, and φ(P) = λ·P on a non-generator point.
func TestGLVEndomorphism(t *testing.T) {
	g := glv()
	p, r := P(), Order()
	beta := params().fp.ToBig(nil, &g.beta)
	if new(big.Int).Exp(beta, big.NewInt(3), p).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("β is not a cube root of unity in Fp")
	}
	if new(big.Int).Exp(g.lambda, big.NewInt(3), r).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("λ is not a cube root of unity in Zr")
	}
	pt := G1Generator().ScalarMul(big.NewInt(123456789))
	x, y := pt.bigAffine()
	phi := bigG1{x: fpMul(beta, x, p), y: y}.g1()
	if !phi.IsOnCurve() {
		t.Fatal("φ(P) left the curve")
	}
	if !affineLadder(pt, g.lambda).Equal(phi) {
		t.Fatal("φ(P) ≠ λ·P")
	}
}

// FuzzGLVDecompose hammers the fixed-width split with arbitrary byte
// strings (interpreted as scalars, including values ≥ r): the congruence
// k1 + k2·λ ≡ k and the size bound must always hold, and the kernel's
// product must equal k1'·P + k2'·φ(P) for the oracle split's halves.
func FuzzGLVDecompose(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add(Order().Bytes())
	f.Add(new(big.Int).Sub(Order(), big.NewInt(1)).Bytes())
	f.Add(new(big.Int).Lsh(big.NewInt(1), 253).Bytes())
	base := G1Generator().ScalarMul(big.NewInt(0xfade))
	phiBase := glv().phi(base)
	r := Order()
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		k := new(big.Int).SetBytes(raw)
		checkSplit(t, k)
		o1, o2 := oracleSplit(k)
		want := genericScalarMul(base, o1.Mod(o1, r)).Add(genericScalarMul(&phiBase, o2.Mod(o2, r)))
		if got := base.ScalarMul(k); !got.Equal(want) {
			t.Fatalf("GLV mul diverged from the oracle split for %x", raw)
		}
	})
}

func BenchmarkScalarMulGLV(b *testing.B) {
	base := G1Generator().ScalarMul(big.NewInt(99))
	ks := randScalars(64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.ScalarMul(ks[i%len(ks)])
	}
}

// BenchmarkGLVSplit times the fixed-width split and recoding of one scalar.
func BenchmarkGLVSplit(b *testing.B) {
	ks := randScalars(64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sc glvScalar
		s := scalarLimbs(ks[i%len(ks)])
		sc.recode(&s)
	}
}
