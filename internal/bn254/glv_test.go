package bn254

import (
	"math/big"
	"testing"
)

// TestGLVMatchesGeneric: the endomorphism-split multiplication must agree
// with the generic double-and-add ladder over structured and random
// scalars, for several bases including the identity.
func TestGLVMatchesGeneric(t *testing.T) {
	bases := []*G1{
		G1Generator(),
		G1Generator().ScalarMul(big.NewInt(0x5eed)),
		G1Infinity(),
	}
	for _, base := range bases {
		for _, k := range append(structuredScalars(), randScalars(24, 42)...) {
			s := new(big.Int).Mod(k, Order())
			want := genericScalarMul(base, s)
			if got := base.ScalarMul(k); !got.Equal(want) {
				t.Fatalf("GLV ScalarMul(%s) = %s, generic = %s", k, got, want)
			}
		}
	}
}

// TestGLVDecompose checks the decomposition invariant directly: for every
// scalar, k1 + k2·λ ≡ k (mod r) with both halves within the size bound.
func TestGLVDecompose(t *testing.T) {
	lambda := glv().lambda
	r := Order()
	for _, k := range append(structuredScalars(), randScalars(64, 99)...) {
		k1, k2, ok := GLVDecompose(k)
		if !ok {
			t.Fatalf("decomposition of %s failed its soundness check", k)
		}
		chk := new(big.Int).Mul(k2, lambda)
		chk.Add(chk, k1).Sub(chk, new(big.Int).Mod(k, r)).Mod(chk, r)
		if chk.Sign() != 0 {
			t.Fatalf("k1 + k2·λ ≢ k for %s", k)
		}
		if k1.BitLen() > glvDecomposeBits || k2.BitLen() > glvDecomposeBits {
			t.Fatalf("decomposition of %s too long: %d/%d bits", k, k1.BitLen(), k2.BitLen())
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

// FuzzGLVDecompose hammers the scalar decomposition with arbitrary byte
// strings (interpreted as scalars, including values ≥ r): the congruence
// k1 + k2·λ ≡ k and the length bound must always hold, and the resulting
// multiplication must match the generic ladder.
func FuzzGLVDecompose(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add(Order().Bytes())
	f.Add(new(big.Int).Sub(Order(), big.NewInt(1)).Bytes())
	f.Add(new(big.Int).Lsh(big.NewInt(1), 253).Bytes())
	base := G1Generator().ScalarMul(big.NewInt(0xfade))
	lambda := glv().lambda
	r := Order()
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		k := new(big.Int).SetBytes(raw)
		k1, k2, ok := GLVDecompose(k)
		if !ok {
			t.Fatalf("decomposition failed for %x", raw)
		}
		chk := new(big.Int).Mul(k2, lambda)
		chk.Add(chk, k1).Sub(chk, new(big.Int).Mod(k, r)).Mod(chk, r)
		if chk.Sign() != 0 {
			t.Fatalf("k1 + k2·λ ≢ k for %x", raw)
		}
		if got, want := base.ScalarMul(k), genericScalarMul(base, new(big.Int).Mod(k, r)); !got.Equal(want) {
			t.Fatalf("GLV mul diverged for %x", raw)
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
