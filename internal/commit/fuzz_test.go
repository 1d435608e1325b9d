package commit

import "testing"

// FuzzCommitOpen checks the commitment scheme's correctness and (keyed)
// binding over arbitrary messages: every (msg, key) opens its own
// commitment, and any single-bit mutation of the message or the key is
// rejected.
func FuzzCommitOpen(f *testing.F) {
	f.Add([]byte("answers"), []byte("0123456789abcdef0123456789abcdef"), uint16(0))
	f.Add([]byte{}, []byte{}, uint16(9))
	f.Fuzz(func(t *testing.T, msg, keyBytes []byte, flip uint16) {
		var key Key
		copy(key[:], keyBytes)
		c := Commit(msg, key)
		if !Open(c, msg, key) {
			t.Fatal("commitment does not open to its own (msg, key)")
		}
		// Streamed in two parts, the message commits to the same digest.
		k := int(flip) % (len(msg) + 1)
		if CommitParts([][]byte{msg[:k], msg[k:]}, key) != c {
			t.Fatalf("CommitParts split at %d differs from Commit", k)
		}
		// Mutate one bit of the message: must no longer open.
		if len(msg) > 0 {
			mutated := append([]byte{}, msg...)
			mutated[int(flip)%len(mutated)] ^= 1 << (flip % 8)
			if Open(c, mutated, key) {
				t.Fatal("commitment opens to a mutated message")
			}
		}
		// Mutate one bit of the key: must no longer open.
		badKey := key
		badKey[int(flip)%KeySize] ^= 1 << (flip % 8)
		if Open(c, msg, badKey) {
			t.Fatal("commitment opens under a mutated key")
		}
	})
}
