package wire

import (
	"bytes"
	"testing"
)

// FuzzReaderOps drives the Reader over arbitrary input with an op stream
// derived from the input itself: whatever the bytes, decoding must return
// values or errors — never panic, never read out of bounds, never loop.
func FuzzReaderOps(f *testing.F) {
	w := NewWriter()
	w.WriteUint(300)
	w.WriteInt(-7)
	w.WriteBool(true)
	w.WriteBytes([]byte("payload"))
	w.WriteString("s")
	w.WriteFixed(make([]byte, 32))
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ops, payload := data[0], data[1:]
		r := NewReader(payload)
		for i := 0; i < 8; i++ {
			before := r.Remaining()
			var err error
			// Mixing the op byte with a stride-5 walk reaches all seven ops
			// for every value of ops (5 and 7 are coprime).
			switch (int(ops) + i*5) % 7 {
			case 0:
				_, err = r.ReadUint()
			case 1:
				_, err = r.ReadInt()
			case 2:
				_, err = r.ReadBool()
			case 3:
				_, err = r.ReadBytes()
			case 4:
				_, err = r.ReadString()
			case 5:
				_, err = r.ReadFixed(int(ops) % 64)
			case 6:
				var n int
				if n, err = r.ReadCount(); err == nil && n > r.Remaining() {
					t.Fatalf("count %d exceeds the %d bytes left", n, r.Remaining())
				}
			}
			if r.Remaining() > before {
				t.Fatalf("reader gained input: %d -> %d", before, r.Remaining())
			}
			if err != nil {
				break
			}
		}
		_ = r.Done()
	})
}

// FuzzRoundTrip encodes fuzzer-chosen values and requires decode to return
// them exactly — encode(x) must always decode back to x, because gas is
// charged per calldata byte and commitments are computed over encodings.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), false, []byte{}, "")
	f.Add(uint64(1<<63), int64(-1<<62), true, []byte{1, 2, 3}, "commit")
	f.Fuzz(func(t *testing.T, u uint64, i int64, b bool, bs []byte, s string) {
		w := NewWriter()
		w.WriteUint(u)
		w.WriteInt(i)
		w.WriteBool(b)
		w.WriteBytes(bs)
		w.WriteString(s)
		w.WriteFixed(bs)

		r := NewReader(w.Bytes())
		gu, err := r.ReadUint()
		if err != nil || gu != u {
			t.Fatalf("uint: %v %d != %d", err, gu, u)
		}
		gi, err := r.ReadInt()
		if err != nil || gi != i {
			t.Fatalf("int: %v %d != %d", err, gi, i)
		}
		gb, err := r.ReadBool()
		if err != nil || gb != b {
			t.Fatalf("bool: %v %v != %v", err, gb, b)
		}
		gbs, err := r.ReadBytes()
		if err != nil || !bytes.Equal(gbs, bs) {
			t.Fatalf("bytes: %v %x != %x", err, gbs, bs)
		}
		gs, err := r.ReadString()
		if err != nil || gs != s {
			t.Fatalf("string: %v %q != %q", err, gs, s)
		}
		gf, err := r.ReadFixed(len(bs))
		if err != nil || !bytes.Equal(gf, bs) {
			t.Fatalf("fixed: %v %x != %x", err, gf, bs)
		}
		if err := r.Done(); err != nil {
			t.Fatalf("trailing bytes after full decode: %v", err)
		}
	})
}
