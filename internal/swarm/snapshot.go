package swarm

// Store deletion and snapshot/restore — the off-chain storage half of a
// long-lived service's bounded, resumable state. A settled task's questions
// and reveals never need serving again, so the service deletes them; a
// restarting service restores the surviving content byte-for-byte (addresses
// are content digests, so the encoding carries only the content).

import (
	"bytes"
	"fmt"
	"sort"

	"dragoon/internal/wire"
)

// snapshotVersion guards the store snapshot encoding.
const snapshotVersion = 1

// Delete removes the content at d, if present. Deleting is how a service
// bounds the store: content published for a settled task is unreferenced once
// the task's contract is pruned.
func (s *Store) Delete(d Digest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, d)
}

// Snapshot encodes every stored object in deterministic (address-sorted)
// order. Addresses are not encoded — they are recomputed on restore.
func (s *Store) Snapshot() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	addrs := make([]Digest, 0, len(s.data))
	for d := range s.data {
		addrs = append(addrs, d)
	}
	sort.Slice(addrs, func(i, j int) bool { return bytes.Compare(addrs[i][:], addrs[j][:]) < 0 })
	w := wire.NewWriter()
	w.WriteUint(snapshotVersion)
	w.WriteUint(uint64(len(addrs)))
	for _, d := range addrs {
		w.WriteBytes(s.data[d])
	}
	return w.Bytes()
}

// Restore decodes a Snapshot into a fresh store.
func Restore(data []byte) (*Store, error) {
	r := wire.NewReader(data)
	v, err := r.ReadUint()
	if err != nil {
		return nil, fmt.Errorf("swarm: restore: %w", err)
	}
	if v != snapshotVersion {
		return nil, fmt.Errorf("swarm: restore: snapshot version %d, want %d", v, snapshotVersion)
	}
	n, err := r.ReadCount()
	if err != nil {
		return nil, fmt.Errorf("swarm: restore: object count: %w", err)
	}
	s := New()
	for i := 0; i < n; i++ {
		content, err := r.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("swarm: restore: object %d: %w", i, err)
		}
		s.data[Address(content)] = content
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("swarm: restore: %w", err)
	}
	return s, nil
}
