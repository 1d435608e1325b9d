package protocol

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/task"
)

// TestDecryptTableConcurrent exercises the lazy short-log-table init from
// many goroutines at once — under `go test -race` this pins the sync.Once
// guard: the old unguarded `if r.logTable == nil` write raced when two
// submissions were decrypted concurrently. Each goroutine decrypts its own
// span of in-range, out-of-range and identity-c1 ciphertexts with
// DecryptMany, on both backends, and must get Decrypt's results.
func TestDecryptTableConcurrent(t *testing.T) {
	for _, g := range []group.Group{group.TestSchnorr(), group.BN254G1()} {
		rng := rand.New(rand.NewSource(7))
		inst, err := task.Generate(task.GenerateParams{
			ID: "race", N: 4, RangeSize: 40, NumGolden: 2,
			Workers: 2, Threshold: 1, Budget: 100,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := elgamal.KeyGen(g, rng)
		if err != nil {
			t.Fatal(err)
		}
		r := &Requester{sk: sk, inst: inst}
		bound := inst.Task.RangeSize

		const goroutines = 8
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(m int64) {
				defer wg.Done()
				rnd := drbg.New(m, "decrypt-table-race")
				var span []elgamal.Ciphertext
				for _, pm := range []int64{m, bound + m} { // in range, out of range
					ct, _, err := sk.Encrypt(pm, rnd)
					if err != nil {
						errs <- err.Error()
						return
					}
					zero, err := sk.EncryptWithRandomness(pm, big.NewInt(0)) // c1 = identity
					if err != nil {
						errs <- err.Error()
						return
					}
					span = append(span, ct, zero)
				}
				for i, got := range sk.DecryptMany(r.decryptTable(), span) {
					want := sk.Decrypt(span[i], bound)
					if got.InRange != want.InRange || got.Value != want.Value || !g.Equal(got.Element, want.Element) {
						errs <- "DecryptMany differs from Decrypt"
						return
					}
				}
			}(int64(w))
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("%s: %s", g.Name(), e)
		}

		// Every goroutine must have observed the same table.
		if r.logTable == nil || r.decryptTable() != r.logTable {
			t.Fatalf("%s: decryptTable did not settle on one table", g.Name())
		}
	}
}
