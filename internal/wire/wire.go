// Package wire provides a small deterministic binary codec used to encode
// protocol messages into transaction calldata. Determinism matters twice:
// the gas model charges per calldata byte (as Ethereum does), and
// commitments are computed over encoded messages, so encode(decode(x))
// must equal x.
//
// The format is a simple length-prefixed concatenation: unsigned integers as
// uvarint, signed as zigzag varint, byte strings as uvarint length + bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrTruncated is returned when a reader runs out of input mid-field.
var ErrTruncated = errors.New("wire: truncated input")

// Writer accumulates an encoded message.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// NewWriterSize returns an empty Writer with room for n bytes, for a
// message whose encoded length is known up front: Bytes then returns a
// buffer without growth slack.
func NewWriterSize(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// UintLen returns the encoded length of v as written by WriteUint.
func UintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// BytesLen returns the encoded length of b as written by WriteBytes.
func BytesLen(b []byte) int { return UintLen(uint64(len(b))) + len(b) }

// Bytes returns the encoded message.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the current encoded length.
func (w *Writer) Len() int { return len(w.buf) }

// WriteUint appends an unsigned integer.
func (w *Writer) WriteUint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// WriteInt appends a signed integer (zigzag encoding).
func (w *Writer) WriteInt(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// WriteBool appends a boolean as one byte.
func (w *Writer) WriteBool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// WriteBytes appends a length-prefixed byte string.
func (w *Writer) WriteBytes(b []byte) {
	w.WriteUint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// WriteString appends a length-prefixed string.
func (w *Writer) WriteString(s string) { w.WriteBytes([]byte(s)) }

// WriteFixed appends raw bytes with no length prefix (fixed-size fields).
func (w *Writer) WriteFixed(b []byte) {
	w.buf = append(w.buf, b...)
}

// Reader decodes a message produced by Writer.
type Reader struct {
	buf []byte
	off int
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns an error unless the reader consumed its entire input; call it
// at the end of a message decode to reject trailing garbage.
func (r *Reader) Done() error {
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// ReadUint decodes an unsigned integer.
func (r *Reader) ReadUint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.off += n
	return v, nil
}

// ReadCount decodes an element count: a ReadUint that fails with
// ErrTruncated when the count exceeds Remaining(). Every encoded element
// takes at least one byte, so a larger count cannot be honest, and a
// decoder may size an allocation or a loop by the result.
func (r *Reader) ReadCount() (int, error) {
	n, err := r.ReadUint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Remaining()) {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// ReadInt decodes a signed integer.
func (r *Reader) ReadInt() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.off += n
	return v, nil
}

// ReadBool decodes a boolean.
func (r *Reader) ReadBool() (bool, error) {
	if r.off >= len(r.buf) {
		return false, ErrTruncated
	}
	b := r.buf[r.off]
	r.off++
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("wire: invalid bool byte %#x", b)
	}
}

// ReadBytes decodes a length-prefixed byte string (returning a copy).
func (r *Reader) ReadBytes() ([]byte, error) {
	n, err := r.ReadUint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, ErrTruncated
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return out, nil
}

// ReadString decodes a length-prefixed string.
func (r *Reader) ReadString() (string, error) {
	b, err := r.ReadBytes()
	return string(b), err
}

// ReadFixed decodes n raw bytes (returning a copy).
func (r *Reader) ReadFixed(n int) ([]byte, error) {
	if n > r.Remaining() {
		return nil, ErrTruncated
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+n])
	r.off += n
	return out, nil
}
