package limb

import (
	"math/big"
	"math/rand"
	"testing"
)

var (
	bn254P, _ = new(big.Int).SetString("21888242871839275222246405745257275088696311157297823662689037894645226208583", 10)
	bn254R, _ = new(big.Int).SetString("21888242871839275222246405745257275088548364400416034343698204186575808495617", 10)
)

func testFields(t *testing.T) map[string]*Field {
	t.Helper()
	return map[string]*Field{
		"fp": MustField(bn254P),
		"fr": MustField(bn254R),
	}
}

// edgeValues are the structured inputs every differential test sweeps:
// boundaries of the reduction logic plus values with extreme limb patterns.
func edgeValues(q *big.Int) []*big.Int {
	max64 := new(big.Int).SetUint64(^uint64(0))
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		max64,
		new(big.Int).Add(max64, big.NewInt(1)), // 2^64
		new(big.Int).Sub(q, big.NewInt(1)),
		new(big.Int).Sub(q, max64),
		new(big.Int).Rsh(q, 1),
	}
}

func randVals(q *big.Int, n int, seed int64) []*big.Int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int).Rand(rng, q)
	}
	return out
}

func TestNewFieldRejectsUnsupported(t *testing.T) {
	bad := []*big.Int{
		big.NewInt(0),
		big.NewInt(-7),
		big.NewInt(10),                       // even
		new(big.Int).Lsh(big.NewInt(1), 255), // too wide (and even)
		new(big.Int).SetBit(new(big.Int).SetBit(big.NewInt(1), 254, 1), 255, 0), // top limb too large? build explicitly below
	}
	// Odd modulus with top limb ≥ 2^63−1: (2^63−1)<<192 + 1.
	tooBigTop := new(big.Int).Lsh(new(big.Int).SetUint64(1<<63-1), 192)
	tooBigTop.Add(tooBigTop, big.NewInt(1))
	bad = append(bad, tooBigTop)
	for _, q := range bad {
		if _, err := NewField(q); err == nil && (q.Bit(0) == 0 || q.Sign() <= 0 || q.BitLen() > 255 || q.Cmp(tooBigTop) >= 0) {
			t.Errorf("NewField(%v) accepted an unsupported modulus", q)
		}
	}
	for _, q := range []*big.Int{bn254P, bn254R} {
		if _, err := NewField(q); err != nil {
			t.Fatalf("NewField rejected a valid modulus: %v", err)
		}
	}
}

func TestRoundTripConversions(t *testing.T) {
	for name, f := range testFields(t) {
		q := f.Modulus()
		vals := append(edgeValues(q), randVals(q, 64, 1)...)
		for _, v := range vals {
			v.Mod(v, q)
			var e Element
			f.SetBig(&e, v)
			got := f.ToBig(nil, &e)
			if got.Cmp(v) != 0 {
				t.Fatalf("%s: SetBig/ToBig round trip: got %v want %v", name, got, v)
			}
			b := f.Bytes32(&e)
			var e2 Element
			if err := f.SetBytes32(&e2, b[:]); err != nil {
				t.Fatalf("%s: SetBytes32 rejected canonical encoding: %v", name, err)
			}
			if !e2.Equal(&e) {
				t.Fatalf("%s: Bytes32/SetBytes32 round trip mismatch for %v", name, v)
			}
		}
		// Negative and ≥q inputs reduce correctly.
		big1 := new(big.Int).Add(q, big.NewInt(5))
		var e Element
		f.SetBig(&e, big1)
		if got := f.ToBig(nil, &e); got.Cmp(big.NewInt(5)) != 0 {
			t.Fatalf("%s: SetBig(q+5) = %v, want 5", name, got)
		}
		f.SetBig(&e, big.NewInt(-3))
		want := new(big.Int).Sub(q, big.NewInt(3))
		if got := f.ToBig(nil, &e); got.Cmp(want) != 0 {
			t.Fatalf("%s: SetBig(-3) = %v, want q-3", name, got)
		}
	}
}

func TestSetBytes32RejectsNonCanonical(t *testing.T) {
	for name, f := range testFields(t) {
		q := f.Modulus()
		for _, v := range []*big.Int{
			new(big.Int).Set(q),
			new(big.Int).Add(q, big.NewInt(1)),
			new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)),
		} {
			var b [32]byte
			v.FillBytes(b[:])
			var e Element
			if err := f.SetBytes32(&e, b[:]); err == nil {
				t.Fatalf("%s: SetBytes32 accepted non-canonical value %v", name, v)
			}
		}
		var e Element
		if err := f.SetBytes32(&e, make([]byte, 31)); err == nil {
			t.Fatalf("%s: SetBytes32 accepted a 31-byte slice", name)
		}
	}
}

func TestArithmeticMatchesBigInt(t *testing.T) {
	for name, f := range testFields(t) {
		q := f.Modulus()
		vals := append(edgeValues(q), randVals(q, 48, 2)...)
		for i, av := range vals {
			av = new(big.Int).Mod(av, q)
			bv := new(big.Int).Mod(vals[(i*7+3)%len(vals)], q)
			var a, b, z Element
			f.SetBig(&a, av)
			f.SetBig(&b, bv)

			check := func(op string, want *big.Int) {
				t.Helper()
				if got := f.ToBig(nil, &z); got.Cmp(want) != 0 {
					t.Fatalf("%s: %s(%v, %v) = %v, want %v", name, op, av, bv, got, want)
				}
			}
			f.Add(&z, &a, &b)
			check("add", new(big.Int).Mod(new(big.Int).Add(av, bv), q))
			f.Sub(&z, &a, &b)
			check("sub", new(big.Int).Mod(new(big.Int).Sub(av, bv), q))
			f.Mul(&z, &a, &b)
			check("mul", new(big.Int).Mod(new(big.Int).Mul(av, bv), q))
			f.Square(&z, &a)
			check("square", new(big.Int).Mod(new(big.Int).Mul(av, av), q))
			f.Neg(&z, &a)
			check("neg", new(big.Int).Mod(new(big.Int).Neg(av), q))
			f.Double(&z, &a)
			check("double", new(big.Int).Mod(new(big.Int).Lsh(av, 1), q))
		}
	}
}

func TestArithmeticAliasing(t *testing.T) {
	f := MustField(bn254P)
	q := f.Modulus()
	av := big.NewInt(123456789)
	var a Element
	f.SetBig(&a, av)
	f.Mul(&a, &a, &a) // z aliases both inputs
	want := new(big.Int).Mod(new(big.Int).Mul(av, av), q)
	if got := f.ToBig(nil, &a); got.Cmp(want) != 0 {
		t.Fatalf("aliased mul: got %v want %v", got, want)
	}
	f.SetBig(&a, av)
	f.Add(&a, &a, &a)
	want = new(big.Int).Mod(new(big.Int).Lsh(av, 1), q)
	if got := f.ToBig(nil, &a); got.Cmp(want) != 0 {
		t.Fatalf("aliased add: got %v want %v", got, want)
	}
}

func TestExpMatchesBigInt(t *testing.T) {
	for name, f := range testFields(t) {
		q := f.Modulus()
		bases := append(edgeValues(q), randVals(q, 8, 3)...)
		exps := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(65537),
			new(big.Int).Sub(q, big.NewInt(1)),
			new(big.Int).Sub(q, big.NewInt(2)),
			randVals(q, 1, 4)[0],
		}
		for _, bv := range bases {
			bv = new(big.Int).Mod(bv, q)
			var x, z Element
			f.SetBig(&x, bv)
			for _, e := range exps {
				f.Exp(&z, x, e)
				want := new(big.Int).Exp(bv, e, q)
				if got := f.ToBig(nil, &z); got.Cmp(want) != 0 {
					t.Fatalf("%s: exp(%v, %v) = %v, want %v", name, bv, e, got, want)
				}
			}
		}
	}
}

func TestInverseMatchesBigInt(t *testing.T) {
	for name, f := range testFields(t) {
		q := f.Modulus()
		vals := append(edgeValues(q), randVals(q, 64, 5)...)
		for _, v := range vals {
			v = new(big.Int).Mod(v, q)
			var x, z Element
			f.SetBig(&x, v)
			f.Inverse(&z, &x)
			if v.Sign() == 0 {
				if !z.IsZero() {
					t.Fatalf("%s: Inverse(0) != 0", name)
				}
				continue
			}
			want := new(big.Int).ModInverse(v, q)
			if got := f.ToBig(nil, &z); got.Cmp(want) != 0 {
				t.Fatalf("%s: inverse(%v) = %v, want %v", name, v, got, want)
			}
			// x · x⁻¹ = 1 in the limb domain too.
			f.Mul(&z, &z, &x)
			if !z.Equal(&f.one) {
				t.Fatalf("%s: x * Inverse(x) != 1 for %v", name, v)
			}
		}
	}
}

func TestBatchInvert(t *testing.T) {
	f := MustField(bn254P)
	q := f.Modulus()
	vals := append(edgeValues(q), randVals(q, 33, 6)...)
	xs := make([]Element, len(vals))
	for i, v := range vals {
		f.SetBig(&xs[i], new(big.Int).Mod(v, q))
	}
	scratch := make([]Element, len(xs))
	got := make([]Element, len(xs))
	copy(got, xs)
	f.BatchInvert(got, scratch)
	for i := range xs {
		var want Element
		f.Inverse(&want, &xs[i])
		if !got[i].Equal(&want) {
			t.Fatalf("BatchInvert[%d] mismatch (value %v)", i, f.ToBig(nil, &xs[i]))
		}
	}
	// Empty batch is a no-op.
	f.BatchInvert(nil, nil)
}

func TestSetUint64AndOne(t *testing.T) {
	f := MustField(bn254R)
	var e Element
	f.SetUint64(&e, 42)
	if got := f.ToBig(nil, &e); got.Cmp(big.NewInt(42)) != 0 {
		t.Fatalf("SetUint64(42) = %v", got)
	}
	f.SetOne(&e)
	if got := f.ToBig(nil, &e); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("SetOne = %v", got)
	}
	one := f.One()
	if !one.Equal(&e) {
		t.Fatal("One() != SetOne result")
	}
}

// TestFieldMulZeroAllocs proves the hot-path field operations allocate
// nothing — the property the whole backend exists for.
func TestFieldMulZeroAllocs(t *testing.T) {
	f := MustField(bn254P)
	var a, b, z Element
	f.SetBig(&a, big.NewInt(0x1234567890abcdef))
	f.SetBig(&b, new(big.Int).SetUint64(0xfedcba9876543210))
	ops := map[string]func(){
		"add":    func() { f.Add(&z, &a, &b) },
		"sub":    func() { f.Sub(&z, &a, &b) },
		"neg":    func() { f.Neg(&z, &a) },
		"mul":    func() { f.Mul(&z, &a, &b) },
		"square": func() { f.Square(&z, &a) },
		"inv":    func() { f.Inverse(&z, &a) },
	}
	for name, op := range ops {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func BenchmarkMul(b *testing.B) {
	f := MustField(bn254P)
	var x, y, z Element
	f.SetBig(&x, big.NewInt(0x1234567890abcdef))
	f.SetBig(&y, new(big.Int).SetUint64(0xfedcba9876543210))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Mul(&z, &x, &y)
	}
}

func BenchmarkMulBigInt(b *testing.B) {
	p := new(big.Int).Set(bn254P)
	x := big.NewInt(0x1234567890abcdef)
	y := new(big.Int).SetUint64(0xfedcba9876543210)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z := new(big.Int).Mul(x, y)
		z.Mod(z, p)
	}
}

func BenchmarkInverse(b *testing.B) {
	f := MustField(bn254P)
	var x, z Element
	f.SetBig(&x, big.NewInt(0x1234567890abcdef))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Inverse(&z, &x)
	}
}
