// Package commit implements the hash-based commitment scheme the Dragoon
// paper instantiates in the random-oracle model (§V-C):
//
//	Commit(msg, key) = H(msg ‖ key)
//	Open(comm, msg', key') = [H(msg' ‖ key') ≡ comm]
//
// with H = keccak256 and a λ-bit uniformly random key. The scheme is
// computationally hiding and binding in the ROM; the protocol uses it for
// workers' answer commitments (commit-reveal against the rushing adversary)
// and the requester's golden-standard commitment (public auditability).
package commit

import (
	"crypto/rand"
	"fmt"
	"io"

	"dragoon/internal/keccak"
)

// KeySize is the blinding-key length in bytes (λ = 256).
const KeySize = 32

// Commitment is a keccak256 commitment digest.
type Commitment [keccak.Size]byte

// Key is the blinding key used to open a commitment.
type Key [KeySize]byte

// NewKey samples a fresh blinding key from r (crypto/rand if nil).
func NewKey(r io.Reader) (Key, error) {
	if r == nil {
		r = rand.Reader
	}
	var k Key
	if _, err := io.ReadFull(r, k[:]); err != nil {
		return Key{}, fmt.Errorf("commit: sampling key: %w", err)
	}
	return k, nil
}

// Commit commits to msg under key.
func Commit(msg []byte, key Key) Commitment {
	return CommitParts([][]byte{msg}, key)
}

// CommitParts commits to the concatenation of parts under key, hashing the
// parts as a stream so that the concatenation is never built.
func CommitParts(parts [][]byte, key Key) Commitment {
	var h keccak.Hasher
	for _, p := range parts {
		_, _ = h.Write(p)
	}
	_, _ = h.Write(key[:])
	return Commitment(h.Sum256())
}

// Open verifies that comm opens to (msg, key).
func Open(comm Commitment, msg []byte, key Key) bool {
	return Commit(msg, key) == comm
}

// Bytes returns the commitment as a byte slice (a fresh copy).
func (c Commitment) Bytes() []byte {
	out := make([]byte, len(c))
	copy(out, c[:])
	return out
}
