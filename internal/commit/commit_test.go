package commit_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"dragoon/internal/commit"
	"dragoon/internal/drbg"
)

func TestCommitOpen(t *testing.T) {
	key, err := commit.NewKey(drbg.New(1, "TestCommitOpen"))
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	msg := []byte("the quality of mercy is not strained")
	c := commit.Commit(msg, key)
	if !commit.Open(c, msg, key) {
		t.Error("honest opening rejected")
	}
	if commit.Open(c, []byte("another message"), key) {
		t.Error("wrong message accepted")
	}
	var wrongKey commit.Key
	if commit.Open(c, msg, wrongKey) {
		t.Error("wrong key accepted")
	}
}

func TestCommitOpenQuick(t *testing.T) {
	f := func(msg []byte, key commit.Key, otherMsg []byte) bool {
		c := commit.Commit(msg, key)
		if !commit.Open(c, msg, key) {
			return false
		}
		if !bytes.Equal(msg, otherMsg) && commit.Open(c, otherMsg, key) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeysAreFresh(t *testing.T) {
	rnd := drbg.New(2, "TestKeysAreFresh")
	a, err := commit.NewKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	b, err := commit.NewKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("two fresh keys are identical")
	}
}

// Hiding smoke test: commitments to the two possible binary answers under
// fresh keys must differ from each other and from commitments to the raw
// messages (no structure leaks without the key).
func TestCommitmentsLookIndependent(t *testing.T) {
	rnd := drbg.New(3, "TestCommitmentsLookIndependent")
	k1, _ := commit.NewKey(rnd)
	k2, _ := commit.NewKey(rnd)
	c1 := commit.Commit([]byte{0}, k1)
	c2 := commit.Commit([]byte{0}, k2)
	if c1 == c2 {
		t.Error("same message, different keys, same commitment")
	}
}

func TestBytesCopy(t *testing.T) {
	key, _ := commit.NewKey(drbg.New(4, "TestBytesCopy"))
	c := commit.Commit([]byte("x"), key)
	b := c.Bytes()
	b[0] ^= 0xff
	if c.Bytes()[0] == b[0] {
		t.Error("Bytes returned a view, not a copy")
	}
}
