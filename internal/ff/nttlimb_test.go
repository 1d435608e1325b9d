package ff

import (
	"math/big"
	"math/rand"
	"testing"
)

// bigIntField returns a copy of f without its limb backend, so every
// transform and vector kernel takes the big.Int path — the one moduli
// rejected by internal/limb run on.
func bigIntField(f *Field) *Field {
	g := *f
	g.lf = nil
	return &g
}

func randVec(t *testing.T, f *Field, n int, seed int64) []*big.Int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int).Rand(rng, f.Modulus())
	}
	// Exercise the nil-as-zero and boundary conventions too.
	if n > 3 {
		out[0] = nil
		out[1] = new(big.Int)
		out[2] = new(big.Int).Sub(f.Modulus(), big.NewInt(1))
	}
	return out
}

// TestNTTLimbVsBigInt runs every transform on the limb backend and on a
// copy of the field without it, and asserts identical coefficient vectors.
func TestNTTLimbVsBigInt(t *testing.T) {
	f := New(scalarFieldModulus(t))
	if f.lf == nil {
		t.Fatal("BN254 scalar field should support the limb backend")
	}
	bf := bigIntField(f)
	for _, n := range []int{2, 8, 64, 256} {
		d, err := NewDomain(f, n)
		if err != nil {
			t.Fatalf("NewDomain(%d): %v", n, err)
		}
		bd, err := NewDomain(bf, n)
		if err != nil {
			t.Fatalf("NewDomain(%d) without limbs: %v", n, err)
		}
		in := randVec(t, f, n-1, int64(n)) // shorter than N: exercises padding
		ops := []struct {
			name          string
			limbOp, bigOp func([]*big.Int) []*big.Int
		}{
			{"fft", d.FFT, bd.FFT},
			{"ifft", d.IFFT, bd.IFFT},
			{"cosetFFT", d.CosetFFT, bd.CosetFFT},
			{"cosetIFFT", d.CosetIFFT, bd.CosetIFFT},
		}
		for _, op := range ops {
			limbOut, bigOut := op.limbOp(in), op.bigOp(in)
			if len(limbOut) != len(bigOut) {
				t.Fatalf("n=%d %s: length mismatch", n, op.name)
			}
			for i := range limbOut {
				if limbOut[i].Cmp(bigOut[i]) != 0 {
					t.Fatalf("n=%d %s[%d]: limb %v != big %v", n, op.name, i, limbOut[i], bigOut[i])
				}
			}
		}
		// Round trips on the limb backend.
		full := randVec(t, f, n, int64(n)+1)
		back := d.IFFT(d.FFT(full))
		cosetBack := d.CosetIFFT(d.CosetFFT(full))
		for i := range full {
			want := new(big.Int)
			if full[i] != nil {
				want.Set(full[i])
			}
			if back[i].Cmp(want) != 0 {
				t.Fatalf("n=%d IFFT∘FFT[%d]: got %v want %v", n, i, back[i], want)
			}
			if cosetBack[i].Cmp(want) != 0 {
				t.Fatalf("n=%d CosetIFFT∘CosetFFT[%d]: got %v want %v", n, i, cosetBack[i], want)
			}
		}
	}
}

// TestQuotientPointwiseLimbVsBigInt checks the chunked vector kernel
// against the direct per-element formula, with and without limbs.
func TestQuotientPointwiseLimbVsBigInt(t *testing.T) {
	f := New(scalarFieldModulus(t))
	for _, n := range []int{0, 1, 5, 128} {
		rng := rand.New(rand.NewSource(int64(n) + 99))
		a := make([]*big.Int, n)
		b := make([]*big.Int, n)
		c := make([]*big.Int, n)
		for i := 0; i < n; i++ {
			a[i] = new(big.Int).Rand(rng, f.Modulus())
			b[i] = new(big.Int).Rand(rng, f.Modulus())
			c[i] = new(big.Int).Rand(rng, f.Modulus())
		}
		k := new(big.Int).Rand(rng, f.Modulus())
		want := make([]*big.Int, n)
		for i := 0; i < n; i++ {
			want[i] = f.Mul(f.Sub(f.Mul(a[i], b[i]), c[i]), k)
		}
		for _, field := range []*Field{f, bigIntField(f)} {
			got := field.QuotientPointwise(a, b, c, k)
			for i := range want {
				if got[i].Cmp(want[i]) != 0 {
					t.Fatalf("n=%d limb=%v [%d]: got %v want %v", n, field.lf != nil, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFieldWithoutLimbSupport pins the fallback: a modulus too wide for the
// 4×64 kernel must still work through the big.Int paths.
func TestFieldWithoutLimbSupport(t *testing.T) {
	// A 320-bit prime-ish odd modulus (primality irrelevant for these paths).
	p := new(big.Int).Lsh(big.NewInt(1), 320)
	p.Add(p, big.NewInt(7))
	f := New(p)
	if f.lf != nil {
		t.Fatal("320-bit modulus should not get a limb backend")
	}
	a := []*big.Int{big.NewInt(3)}
	b := []*big.Int{big.NewInt(4)}
	c := []*big.Int{big.NewInt(5)}
	got := f.QuotientPointwise(a, b, c, big.NewInt(2))
	if got[0].Cmp(big.NewInt(14)) != 0 {
		t.Fatalf("fallback QuotientPointwise: got %v want 14", got[0])
	}
}

func scalarFieldModulus(t testing.TB) *big.Int {
	t.Helper()
	r, ok := new(big.Int).SetString("21888242871839275222246405745257275088548364400416034343698204186575808495617", 10)
	if !ok {
		t.Fatal("bad modulus literal")
	}
	return r
}

func BenchmarkCosetFFTLimb(b *testing.B) {
	benchCosetFFT(b, New(scalarFieldModulus(b)))
}

func BenchmarkCosetFFTBigInt(b *testing.B) {
	benchCosetFFT(b, bigIntField(New(scalarFieldModulus(b))))
}

func benchCosetFFT(b *testing.B, f *Field) {
	b.Helper()
	d, err := NewDomain(f, 1024)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	in := make([]*big.Int, 1024)
	for i := range in {
		in[i] = new(big.Int).Rand(rng, f.Modulus())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.CosetFFT(in)
	}
}
