package elgamal

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"dragoon/internal/group"
)

// countingGroup wraps a backend and tallies operations with the same price
// split the chain's metered decorator uses: Add and Neg are ECADD-priced,
// ScalarMul and ScalarBaseMul are ECMUL-priced. It deliberately does NOT
// implement FixedBaser — like a metered group, it must take the generic
// path everywhere.
type countingGroup struct {
	group.Group
	adds, muls uint64
}

func (c *countingGroup) Add(a, b group.Element) group.Element {
	c.adds++
	return c.Group.Add(a, b)
}

func (c *countingGroup) Neg(a group.Element) group.Element {
	c.adds++
	return c.Group.Neg(a)
}

func (c *countingGroup) ScalarMul(a group.Element, k *big.Int) group.Element {
	c.muls++
	return c.Group.ScalarMul(a, k)
}

func (c *countingGroup) ScalarBaseMul(k *big.Int) group.Element {
	c.muls++
	return c.Group.ScalarBaseMul(k)
}

// TestShortLogEdgeCases: degenerate and extreme bounds must neither panic
// nor loop, for both the one-shot scan and the table.
func TestShortLogEdgeCases(t *testing.T) {
	g := group.TestSchnorr()
	two := g.ScalarBaseMul(big.NewInt(2))
	cases := []struct {
		name   string
		bound  int64
		target group.Element
		wantM  int64
		wantOK bool
	}{
		{"negative bound", -5, two, 0, false},
		{"zero bound", 0, two, 0, false},
		{"bound 1 identity", 1, g.Identity(), 0, true},
		{"bound 1 miss", 1, two, 0, false},
		{"bound 2 hit", 2, g.Generator(), 1, true},
		{"linear boundary hit", 32, g.ScalarBaseMul(big.NewInt(31)), 31, true},
		{"linear boundary miss", 32, g.ScalarBaseMul(big.NewInt(32)), 0, false},
		{"bsgs boundary hit", 33, g.ScalarBaseMul(big.NewInt(32)), 32, true},
		{"huge bound small log", math.MaxInt64, g.ScalarBaseMul(big.NewInt(12345)), 12345, true},
		{"sqrt ceiling bound", int64(3037000499) * 3037000499, g.ScalarBaseMul(big.NewInt(777)), 777, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, ok := ShortLog(g, tc.target, tc.bound)
			if ok != tc.wantOK || (ok && m != tc.wantM) {
				t.Fatalf("ShortLog = (%d, %v), want (%d, %v)", m, ok, tc.wantM, tc.wantOK)
			}
			table := NewShortLogTable(g, tc.bound)
			m, ok = table.Lookup(tc.target)
			if ok != tc.wantOK || (ok && m != tc.wantM) {
				t.Fatalf("table.Lookup = (%d, %v), want (%d, %v)", m, ok, tc.wantM, tc.wantOK)
			}
		})
	}
}

// TestShortLogGiantStepBoundary sweeps every m around the giant-step edges
// (multiples of the step, bound−1, bound) for a BSGS-regime bound.
func TestShortLogGiantStepBoundary(t *testing.T) {
	g := group.TestSchnorr()
	const bound = 100 // step = 10
	table := NewShortLogTable(g, bound)
	for _, m := range []int64{0, 1, 9, 10, 11, 89, 90, 98, 99, 100, 101, 109} {
		target := g.ScalarBaseMul(big.NewInt(m))
		wantOK := m < bound
		gotM, gotOK := ShortLog(g, target, bound)
		if gotOK != wantOK || (gotOK && gotM != m) {
			t.Fatalf("ShortLog(%d) = (%d, %v), want (%d, %v)", m, gotM, gotOK, m, wantOK)
		}
		gotM, gotOK = table.Lookup(target)
		if gotOK != wantOK || (gotOK && gotM != m) {
			t.Fatalf("Lookup(%d) = (%d, %v), want (%d, %v)", m, gotM, gotOK, m, wantOK)
		}
	}
}

// TestLookupOpsMatchesMeteredScan: for every interesting (bound, m) pair,
// the op counts LookupOps reports must equal the operations an uncached
// ShortLog actually performs on a counting wrapper. This is the contract's
// gas-parity guarantee: cached decryption charges identical gas.
func TestLookupOpsMatchesMeteredScan(t *testing.T) {
	base := group.TestSchnorr()
	for _, bound := range []int64{1, 2, 31, 32, 33, 50, 100, 101, 1000} {
		table := NewShortLogTable(base, bound)
		var ms []int64
		for _, m := range []int64{0, 1, bound / 2, bound - 1, bound, bound + 1, 2 * bound} {
			if m >= 0 {
				ms = append(ms, m)
			}
		}
		for _, m := range ms {
			target := base.ScalarBaseMul(big.NewInt(m))
			cg := &countingGroup{Group: base}
			wantM, wantOK := ShortLog(cg, target, bound)
			gotM, gotOK, ops := table.LookupOps(target)
			if gotM != wantM || gotOK != wantOK {
				t.Fatalf("bound=%d m=%d: LookupOps=(%d,%v), ShortLog=(%d,%v)",
					bound, m, gotM, gotOK, wantM, wantOK)
			}
			if ops.Adds != cg.adds || ops.Muls != cg.muls {
				t.Fatalf("bound=%d m=%d: LookupOps counted adds=%d muls=%d, metered scan did adds=%d muls=%d",
					bound, m, ops.Adds, ops.Muls, cg.adds, cg.muls)
			}
		}
	}
}

// TestSharedShortLogTable: the registry returns one table per (group,
// bound) and stays within its cap.
func TestSharedShortLogTable(t *testing.T) {
	g := group.TestSchnorr()
	a := SharedShortLogTable(g, 500)
	b := SharedShortLogTable(g, 500)
	if a != b {
		t.Fatal("SharedShortLogTable must cache per (group, bound)")
	}
	if c := SharedShortLogTable(g, 501); c == a {
		t.Fatal("distinct bounds must get distinct tables")
	}
	m, ok := a.Lookup(g.ScalarBaseMul(big.NewInt(499)))
	if !ok || m != 499 {
		t.Fatalf("shared table lookup = (%d, %v)", m, ok)
	}
	for i := int64(0); i < 2*sharedTableCap; i++ {
		SharedShortLogTable(g, 10_000+i)
	}
	sharedTableMu.Lock()
	n := len(sharedTables)
	sharedTableMu.Unlock()
	if n > sharedTableCap {
		t.Fatalf("short-log registry grew to %d entries, cap is %d", n, sharedTableCap)
	}
}

// TestEncryptBatchMatchesSingle: the batch kernel must be byte-identical to
// per-element encryption with the same randomness, on both backends, for a
// fresh key that stays below group.SharedBase's table threshold (tens of
// multiplications) and for one batch far longer than it, which builds h's
// table mid-call.
func TestEncryptBatchMatchesSingle(t *testing.T) {
	for _, g := range []group.Group{group.TestSchnorr(), group.BN254G1()} {
		t.Run(g.Name(), func(t *testing.T) {
			for _, n := range []int{17, 256} {
				t.Run(fmt.Sprint(n), func(t *testing.T) { checkEncryptBatch(t, g, n) })
			}
		})
	}
}

// checkEncryptBatch encrypts n plaintexts under a fresh key, as one batch
// and one by one, and fails unless the ciphertexts are identical.
func checkEncryptBatch(t *testing.T, g group.Group, n int) {
	rng := rand.New(rand.NewSource(55 + int64(n)))
	sk, err := KeyGen(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	ms := make([]int64, n)
	rs := make([]*big.Int, n)
	for i := range ms {
		ms[i] = int64(i * 3)
		rs[i] = new(big.Int).Rand(rng, g.Order())
	}
	batch, err := pk.EncryptBatchWithRandomness(ms, rs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		single, err := pk.EncryptWithRandomness(ms[i], rs[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(MarshalCiphertext(g, batch[i])) != string(MarshalCiphertext(g, single)) {
			t.Fatalf("batch ciphertext %d differs from single-shot encryption", i)
		}
	}
	if _, err := pk.EncryptBatchWithRandomness([]int64{1}, rs); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := pk.EncryptBatchWithRandomness([]int64{-1}, rs[:1]); err == nil {
		t.Fatal("negative plaintext must error")
	}
}

func benchEncrypt(b *testing.B, batch bool) {
	g := group.BN254G1()
	rng := rand.New(rand.NewSource(1))
	sk, err := KeyGen(g, rng)
	if err != nil {
		b.Fatal(err)
	}
	pk := &sk.PublicKey
	const n = 16
	ms := make([]int64, n)
	rs := make([]*big.Int, n)
	for i := range ms {
		ms[i] = int64(i % 5)
		rs[i] = new(big.Int).Rand(rng, g.Order())
	}
	// Serve h far past group.SharedBase's table threshold (tens of
	// multiplications), so the loop times the table path.
	for i := 0; i < 64; i++ {
		if _, err := pk.EncryptBatchWithRandomness(ms, rs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch {
			if _, err := pk.EncryptBatchWithRandomness(ms, rs); err != nil {
				b.Fatal(err)
			}
		} else {
			for j := range ms {
				if _, err := pk.EncryptWithRandomness(ms[j], rs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkEncryptBatch16(b *testing.B)  { benchEncrypt(b, true) }
func BenchmarkEncryptSingle16(b *testing.B) { benchEncrypt(b, false) }
