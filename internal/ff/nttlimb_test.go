package ff

import (
	"math/big"
	"math/rand"
	"testing"
)

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

// TestNTTLimbVsBigInt checks every limb transform against direct big.Int
// evaluation: FFT and CosetFFT outputs must equal EvalPoly at ωⁱ and g·ωⁱ,
// and IFFT and CosetIFFT must return polynomials that evaluate back to
// their inputs there.
func TestNTTLimbVsBigInt(t *testing.T) {
	f := New(scalarFieldModulus(t))
	for _, n := range []int{2, 8, 64, 256} {
		d, err := NewDomain(f, n)
		if err != nil {
			t.Fatalf("NewDomain(%d): %v", n, err)
		}
		// points[i] = ωⁱ, cosetPoints[i] = g·ωⁱ.
		points := make([]*big.Int, n)
		cosetPoints := make([]*big.Int, n)
		w := f.One()
		for i := range points {
			points[i] = w
			cosetPoints[i] = f.Mul(d.coset, w)
			w = f.Mul(w, d.Generator())
		}
		in := randVec(t, f, n-1, int64(n)) // shorter than N: exercises padding
		evals := randVec(t, f, n, int64(n)+2)
		for _, tr := range []struct {
			name             string
			forward, inverse func([]*big.Int) []*big.Int
			points           []*big.Int
		}{
			{"fft", d.FFT, d.IFFT, points},
			{"cosetFFT", d.CosetFFT, d.CosetIFFT, cosetPoints},
		} {
			out := tr.forward(in)
			if len(out) != n {
				t.Fatalf("n=%d %s: %d outputs", n, tr.name, len(out))
			}
			coeffs := tr.inverse(evals)
			for i, x := range tr.points {
				if want := EvalPoly(f, in, x); out[i].Cmp(want) != 0 {
					t.Fatalf("n=%d %s[%d]: limb %v != big %v", n, tr.name, i, out[i], want)
				}
				want := new(big.Int)
				if evals[i] != nil {
					want.Set(evals[i])
				}
				if got := EvalPoly(f, coeffs, x); got.Cmp(want) != 0 {
					t.Fatalf("n=%d inverse %s: interpolant at point %d is %v, want %v", n, tr.name, i, got, want)
				}
			}
		}
		// Round trips.
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

// TestQuotientPointwiseLimbVsBigInt checks the chunked limb kernel against
// the direct big.Int per-element formula.
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
		got := f.QuotientPointwise(a, b, c, k)
		if len(got) != n {
			t.Fatalf("n=%d: %d outputs", n, len(got))
		}
		for i := 0; i < n; i++ {
			if want := f.Mul(f.Sub(f.Mul(a[i], b[i]), c[i]), k); got[i].Cmp(want) != 0 {
				t.Fatalf("n=%d [%d]: got %v want %v", n, i, got[i], want)
			}
		}
	}
}

// TestFieldWithoutLimbSupport pins New's contract: a modulus too wide for
// the 4×64 limb kernel panics.
func TestFieldWithoutLimbSupport(t *testing.T) {
	// A 320-bit odd modulus (primality irrelevant: the width alone rules
	// it out).
	p := new(big.Int).Lsh(big.NewInt(1), 320)
	p.Add(p, big.NewInt(7))
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a 320-bit modulus")
		}
	}()
	New(p)
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
	f := New(scalarFieldModulus(b))
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
