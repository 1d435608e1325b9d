package elgamal_test

import (
	"math/big"
	"testing"
	"testing/quick"

	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
)

func TestShortLogTableMatchesShortLog(t *testing.T) {
	g := group.TestSchnorr()
	const bound = 200
	table := elgamal.NewShortLogTable(g, bound)
	f := func(raw uint16) bool {
		m := int64(raw) % (2 * bound) // half in range, half out
		target := g.ScalarBaseMul(big.NewInt(m))
		gotT, okT := table.Lookup(target)
		gotS, okS := elgamal.ShortLog(g, target, bound)
		return okT == okS && (!okT || gotT == gotS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDecryptWithTable: one-element spans of DecryptMany recover in-range
// plaintexts and return g^m for an out-of-range one.
func TestDecryptWithTable(t *testing.T) {
	g := group.TestSchnorr()
	rnd := drbg.New(11, "decrypt-with-table")
	sk, err := elgamal.KeyGen(g, rnd)
	if err != nil {
		t.Fatal(err)
	}
	table := elgamal.NewShortLogTable(g, 64)
	for _, m := range []int64{0, 1, 33, 63} {
		ct, _, err := sk.Encrypt(m, rnd)
		if err != nil {
			t.Fatal(err)
		}
		got := sk.DecryptMany(table, []elgamal.Ciphertext{ct})[0]
		if !got.InRange || got.Value != m {
			t.Errorf("DecryptMany(Enc(%d)) = %+v", m, got)
		}
	}
	// Out of range: the element branch.
	ct, _, err := sk.Encrypt(1000, rnd)
	if err != nil {
		t.Fatal(err)
	}
	got := sk.DecryptMany(table, []elgamal.Ciphertext{ct})[0]
	if got.InRange {
		t.Errorf("out-of-range plaintext reported in range: %+v", got)
	}
	if !g.Equal(got.Element, g.ScalarBaseMul(big.NewInt(1000))) {
		t.Error("element branch wrong")
	}
}

// decryptCases encrypts in-range and out-of-range plaintexts under sk,
// some with c1 the identity (randomness 0).
func decryptCases(t *testing.T, sk *elgamal.PrivateKey, n int, bound int64) []elgamal.Ciphertext {
	t.Helper()
	rnd := drbg.New(12, "decrypt-cases")
	cts := make([]elgamal.Ciphertext, n)
	for i := range cts {
		m := int64(i) % (bound + 3) // the last three of every cycle are out of range
		var err error
		if i%5 == 4 {
			cts[i], err = sk.EncryptWithRandomness(m, big.NewInt(0))
		} else {
			cts[i], _, err = sk.Encrypt(m, rnd)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return cts
}

// TestDecryptManyMatchesDecrypt: on both backends, every result of a span,
// and of one-element spans, equals Decrypt's for in-range, out-of-range
// and identity-c1 ciphertexts.
func TestDecryptManyMatchesDecrypt(t *testing.T) {
	for _, g := range []group.Group{group.TestSchnorr(), group.BN254G1()} {
		t.Run(g.Name(), func(t *testing.T) {
			sk, err := elgamal.KeyGen(g, drbg.New(13, "decrypt-many-"+g.Name()))
			if err != nil {
				t.Fatal(err)
			}
			const bound = 8
			table := elgamal.NewShortLogTable(g, bound)
			cts := decryptCases(t, sk, 53, bound)
			span := sk.DecryptMany(table, cts)
			for i, ct := range cts {
				want := sk.Decrypt(ct, bound)
				for _, got := range []elgamal.Plaintext{span[i], sk.DecryptMany(table, cts[i:i+1])[0]} {
					if got.InRange != want.InRange || got.Value != want.Value || !g.Equal(got.Element, want.Element) {
						t.Fatalf("[%d]: DecryptMany = %+v, Decrypt = %+v", i, got, want)
					}
				}
			}
			if got := sk.DecryptMany(table, nil); len(got) != 0 {
				t.Fatalf("empty span: %d results", len(got))
			}
		})
	}
}

// BenchmarkDecryptMany decrypts one span of 53 BN254 ciphertexts, the
// span one of two pool workers decrypts of an imagenet_honest submission,
// and reports the cost per ciphertext.
func BenchmarkDecryptMany(b *testing.B) {
	g := group.BN254G1()
	rnd := drbg.New(14, "bench-decrypt-many")
	sk, err := elgamal.KeyGen(g, rnd)
	if err != nil {
		b.Fatal(err)
	}
	const bound = 4
	table := elgamal.NewShortLogTable(g, bound)
	cts := make([]elgamal.Ciphertext, 53)
	for i := range cts {
		if cts[i], _, err = sk.Encrypt(int64(i%bound), rnd); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.DecryptMany(table, cts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cts)), "ns/ct")
}

func TestShortLogTableDegenerate(t *testing.T) {
	g := group.TestSchnorr()
	table := elgamal.NewShortLogTable(g, 0)
	if _, ok := table.Lookup(g.Generator()); ok {
		t.Error("zero-bound table found a log")
	}
}
