package wire_test

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"dragoon/internal/wire"
)

func TestRoundtrip(t *testing.T) {
	w := wire.NewWriter()
	w.WriteUint(42)
	w.WriteInt(-7)
	w.WriteBool(true)
	w.WriteBytes([]byte("payload"))
	w.WriteString("dragoon")
	w.WriteFixed([]byte{0xde, 0xad})

	r := wire.NewReader(w.Bytes())
	if v, err := r.ReadUint(); err != nil || v != 42 {
		t.Fatalf("ReadUint = %d, %v", v, err)
	}
	if v, err := r.ReadInt(); err != nil || v != -7 {
		t.Fatalf("ReadInt = %d, %v", v, err)
	}
	if v, err := r.ReadBool(); err != nil || !v {
		t.Fatalf("ReadBool = %v, %v", v, err)
	}
	if b, err := r.ReadBytes(); err != nil || !bytes.Equal(b, []byte("payload")) {
		t.Fatalf("ReadBytes = %q, %v", b, err)
	}
	if s, err := r.ReadString(); err != nil || s != "dragoon" {
		t.Fatalf("ReadString = %q, %v", s, err)
	}
	if b, err := r.ReadFixed(2); err != nil || !bytes.Equal(b, []byte{0xde, 0xad}) {
		t.Fatalf("ReadFixed = %x, %v", b, err)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestRoundtripQuick(t *testing.T) {
	f := func(u uint64, i int64, b bool, data []byte, s string) bool {
		w := wire.NewWriter()
		w.WriteUint(u)
		w.WriteInt(i)
		w.WriteBool(b)
		w.WriteBytes(data)
		w.WriteString(s)
		r := wire.NewReader(w.Bytes())
		gu, err1 := r.ReadUint()
		gi, err2 := r.ReadInt()
		gb, err3 := r.ReadBool()
		gd, err4 := r.ReadBytes()
		gs, err5 := r.ReadString()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			return false
		}
		return gu == u && gi == i && gb == b && bytes.Equal(gd, data) && gs == s && r.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTruncation(t *testing.T) {
	w := wire.NewWriter()
	w.WriteBytes(make([]byte, 100))
	enc := w.Bytes()

	r := wire.NewReader(enc[:50])
	if _, err := r.ReadBytes(); err == nil {
		t.Error("truncated bytes accepted")
	}
	r = wire.NewReader(nil)
	if _, err := r.ReadUint(); err == nil {
		t.Error("empty ReadUint accepted")
	}
	if _, err := r.ReadBool(); err == nil {
		t.Error("empty ReadBool accepted")
	}
	if _, err := r.ReadFixed(1); err == nil {
		t.Error("empty ReadFixed accepted")
	}
}

func TestTrailingGarbageDetected(t *testing.T) {
	w := wire.NewWriter()
	w.WriteUint(1)
	w.WriteFixed([]byte{9})
	r := wire.NewReader(w.Bytes())
	if _, err := r.ReadUint(); err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err == nil {
		t.Error("trailing byte not detected")
	}
}

func TestInvalidBool(t *testing.T) {
	r := wire.NewReader([]byte{7})
	if _, err := r.ReadBool(); err == nil {
		t.Error("invalid bool byte accepted")
	}
}

// TestEncodedLengths: UintLen and BytesLen give the lengths WriteUint and
// WriteBytes write, at every uvarint boundary, and NewWriterSize's buffer
// holds such a message without growing.
func TestEncodedLengths(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			w := wire.NewWriter()
			w.WriteUint(v)
			if got := wire.UintLen(v); got != w.Len() {
				t.Fatalf("UintLen(%d) = %d, WriteUint wrote %d", v, got, w.Len())
			}
		}
	}
	for _, n := range []int{0, 1, 127, 128, 16383, 16384} {
		b := make([]byte, n)
		w := wire.NewWriterSize(wire.BytesLen(b))
		w.WriteBytes(b)
		if out := w.Bytes(); len(out) != wire.BytesLen(b) || cap(out) != len(out) {
			t.Fatalf("%d bytes: BytesLen %d, wrote %d into cap %d", n, wire.BytesLen(b), len(out), cap(out))
		}
	}
}

// TestReadCount: a count is accepted up to the unread input that follows
// it and rejected with ErrTruncated beyond it, at 2⁶² and at 2⁶⁴ − 1 too.
func TestReadCount(t *testing.T) {
	for _, tc := range []struct {
		count uint64
		tail  int
		ok    bool
	}{
		{0, 0, true},
		{3, 3, true},
		{3, 5, true},
		{4, 3, false},
		{1, 0, false},
		{1 << 62, 8, false},
		{1<<64 - 1, 8, false},
	} {
		w := wire.NewWriter()
		w.WriteUint(tc.count)
		w.WriteFixed(make([]byte, tc.tail))
		n, err := wire.NewReader(w.Bytes()).ReadCount()
		switch {
		case tc.ok && (err != nil || uint64(n) != tc.count):
			t.Errorf("count %d before %d bytes: got %d, %v", tc.count, tc.tail, n, err)
		case !tc.ok && !errors.Is(err, wire.ErrTruncated):
			t.Errorf("count %d before %d bytes: err = %v, want ErrTruncated", tc.count, tc.tail, err)
		}
	}
}
