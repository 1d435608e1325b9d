// Package limb implements fixed-size 4×64-bit Montgomery field arithmetic —
// the allocation-free kernel under every group operation in the system.
//
// math/big field arithmetic allocates fresh big.Ints and pays a full
// division-based Mod on every field multiplication; at ~2000 field
// multiplications per scalar multiplication that cost (and the GC pressure
// behind it) would be the per-question floor of the whole protocol. This
// package uses the idiom every production pairing library uses instead:
//
//   - an Element is [4]uint64, little-endian limbs, kept in Montgomery form
//     (the stored limbs encode x·R mod q with R = 2^256), so one value is
//     32 bytes of stack with no pointers;
//   - multiplication is CIOS (coarsely integrated operand scanning) with
//     the "no-carry" optimization, valid because every modulus we accept
//     has its top limb below 2^63−1 — four rounds of interleaved
//     multiply-and-Montgomery-reduce built on math/bits.Mul64/Add64;
//   - inversion is a binary extended Euclidean algorithm on raw limbs
//     (division-free, ~2 µs) with a Montgomery-form correction multiply,
//     and BatchInvert shares ONE inversion across a whole batch
//     (Montgomery's trick);
//   - conversion to and from big.Int / canonical 32-byte encodings happens
//     only at package boundaries, and non-canonical encodings (≥ q) are
//     rejected.
//
// A Field carries the per-modulus constants (q, −q⁻¹ mod 2^64, R² mod q),
// so the same code serves the BN254 base field Fp and scalar field Fr.
// internal/bn254 runs all of its G1 scalar multiplication on this package,
// and internal/ff runs its NTT and vector kernels on it for every modulus
// NewField accepts.
package limb

import (
	"encoding/binary"
	"errors"
	"math/big"
	"math/bits"
)

// Element is a field element as four little-endian 64-bit limbs, kept in
// Montgomery form (limbs encode x·R mod q, R = 2^256). The zero value is
// the field's zero. Elements are plain values: assignment copies, equality
// of limbs is equality of field elements (Montgomery form is canonical
// because every operation fully reduces).
type Element [4]uint64

// Field holds the Montgomery constants for one odd modulus q < 2^255 whose
// top limb is below 2^63−1 (the CIOS no-carry condition). All methods are
// safe for concurrent use; the struct is immutable after NewField.
type Field struct {
	q    [4]uint64 // the modulus, little-endian limbs
	qInv uint64    // −q⁻¹ mod 2^64
	r2   Element   // R² mod q (raw limbs; montMul by r2 enters Montgomery form)
	one  Element   // R mod q — the Montgomery form of 1
	mod  *big.Int  // the modulus as a big.Int, for boundary conversions
}

// ErrUnsupportedModulus is returned by NewField for moduli the 4×64 CIOS
// kernel cannot represent: even, non-positive, ≥ 2^255, or with top limb
// ≥ 2^63−1.
var ErrUnsupportedModulus = errors.New("limb: modulus not supported by the 4x64 Montgomery kernel")

// NewField computes the Montgomery constants for q. The modulus must be odd
// (so −q⁻¹ mod 2^64 exists) and satisfy the no-carry bound; Inverse
// additionally assumes q is prime (all callers pass curve field orders).
func NewField(q *big.Int) (*Field, error) {
	if q.Sign() <= 0 || q.Bit(0) == 0 || q.BitLen() > 255 {
		return nil, ErrUnsupportedModulus
	}
	f := &Field{mod: new(big.Int).Set(q)}
	bigToLimbs((*[4]uint64)(&f.r2), q) // temporary: q's limbs
	f.q = f.r2
	if f.q[3] >= 1<<63-1 {
		return nil, ErrUnsupportedModulus
	}
	// qInv = −q⁻¹ mod 2^64 by Newton–Hensel lifting: five iterations double
	// the number of correct low bits starting from the 5 bits of q itself.
	inv := f.q[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - f.q[0]*inv
	}
	f.qInv = -inv

	r := new(big.Int).Lsh(big.NewInt(1), 256)
	bigToLimbs((*[4]uint64)(&f.one), new(big.Int).Mod(r, q))
	r2 := new(big.Int).Mul(r, r)
	bigToLimbs((*[4]uint64)(&f.r2), r2.Mod(r2, q))
	return f, nil
}

// MustField is NewField for moduli known to qualify (package constants);
// it panics on error.
func MustField(q *big.Int) *Field {
	f, err := NewField(q)
	if err != nil {
		panic(err)
	}
	return f
}

// Modulus returns a copy of q.
func (f *Field) Modulus() *big.Int { return new(big.Int).Set(f.mod) }

// --- basic arithmetic -------------------------------------------------------

// Add sets z = x + y. Arguments may alias freely (here and in every method).
func (f *Field) Add(z, x, y *Element) {
	var c uint64
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, _ := bits.Add64(x[3], y[3], c) // no carry out: x, y < q < 2^255
	z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	f.reduce(z)
}

// Double sets z = 2x.
func (f *Field) Double(z, x *Element) { f.Add(z, x, x) }

// Sub sets z = x − y.
func (f *Field) Sub(z, x, y *Element) {
	t0, b := bits.Sub64(x[0], y[0], 0)
	t1, b := bits.Sub64(x[1], y[1], b)
	t2, b := bits.Sub64(x[2], y[2], b)
	t3, b := bits.Sub64(x[3], y[3], b)
	if b != 0 {
		var c uint64
		t0, c = bits.Add64(t0, f.q[0], 0)
		t1, c = bits.Add64(t1, f.q[1], c)
		t2, c = bits.Add64(t2, f.q[2], c)
		t3, _ = bits.Add64(t3, f.q[3], c)
	}
	z[0], z[1], z[2], z[3] = t0, t1, t2, t3
}

// Neg sets z = −x.
func (f *Field) Neg(z, x *Element) {
	if x.IsZero() {
		*z = Element{}
		return
	}
	t0, b := bits.Sub64(f.q[0], x[0], 0)
	t1, b := bits.Sub64(f.q[1], x[1], b)
	t2, b := bits.Sub64(f.q[2], x[2], b)
	t3, _ := bits.Sub64(f.q[3], x[3], b)
	z[0], z[1], z[2], z[3] = t0, t1, t2, t3
}

// reduce conditionally subtracts q once (inputs are < 2q).
func (f *Field) reduce(z *Element) {
	if !z.lessThan(&f.q) {
		var b uint64
		z[0], b = bits.Sub64(z[0], f.q[0], 0)
		z[1], b = bits.Sub64(z[1], f.q[1], b)
		z[2], b = bits.Sub64(z[2], f.q[2], b)
		z[3], _ = bits.Sub64(z[3], f.q[3], b)
	}
}

// lessThan reports z < y as 256-bit integers.
func (z *Element) lessThan(y *[4]uint64) bool {
	if z[3] != y[3] {
		return z[3] < y[3]
	}
	if z[2] != y[2] {
		return z[2] < y[2]
	}
	if z[1] != y[1] {
		return z[1] < y[1]
	}
	return z[0] < y[0]
}

// IsZero reports whether the element is 0.
func (z *Element) IsZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

// Equal reports whether two elements hold the same field value (Montgomery
// form is canonical, so limb equality is value equality).
func (z *Element) Equal(y *Element) bool {
	return z[0] == y[0] && z[1] == y[1] && z[2] == y[2] && z[3] == y[3]
}

// --- Montgomery multiplication ---------------------------------------------

// madd0 returns the high word of a·b + c (the low word is discarded — it is
// zero by construction at the one call site).
func madd0(a, b, c uint64) (hi uint64) {
	var carry uint64
	hi, lo := bits.Mul64(a, b)
	_, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// madd1 returns hi, lo of a·b + c.
func madd1(a, b, c uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// madd2 returns hi, lo of a·b + c + d.
func madd2(a, b, c, d uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	c, carry = bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// madd3 returns hi, lo of a·b + c + d with e added into the high word.
func madd3(a, b, c, d, e uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	c, carry = bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, e, carry)
	return
}

// Mul sets z = x·y (Montgomery product x·y/R): four CIOS rounds, each
// interleaving one operand limb's partial products with one Montgomery
// reduction step. The no-carry shape (top limb of q below 2^63−1) keeps
// every round's carries in two words.
func (f *Field) Mul(z, x, y *Element) {
	q0, q1, q2, q3 := f.q[0], f.q[1], f.q[2], f.q[3]
	qInv := f.qInv
	var t0, t1, t2, t3 uint64
	var c0, c1, c2 uint64
	{
		// round 0
		v := x[0]
		c1, c0 = bits.Mul64(v, y[0])
		m := c0 * qInv
		c2 = madd0(m, q0, c0)
		c1, c0 = madd1(v, y[1], c1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd1(v, y[2], c1)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd1(v, y[3], c1)
		t3, t2 = madd3(m, q3, c0, c2, c1)
	}
	{
		// round 1
		v := x[1]
		c1, c0 = madd1(v, y[0], t0)
		m := c0 * qInv
		c2 = madd0(m, q0, c0)
		c1, c0 = madd2(v, y[1], c1, t1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd2(v, y[2], c1, t2)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd2(v, y[3], c1, t3)
		t3, t2 = madd3(m, q3, c0, c2, c1)
	}
	{
		// round 2
		v := x[2]
		c1, c0 = madd1(v, y[0], t0)
		m := c0 * qInv
		c2 = madd0(m, q0, c0)
		c1, c0 = madd2(v, y[1], c1, t1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd2(v, y[2], c1, t2)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd2(v, y[3], c1, t3)
		t3, t2 = madd3(m, q3, c0, c2, c1)
	}
	{
		// round 3
		v := x[3]
		c1, c0 = madd1(v, y[0], t0)
		m := c0 * qInv
		c2 = madd0(m, q0, c0)
		c1, c0 = madd2(v, y[1], c1, t1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd2(v, y[2], c1, t2)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd2(v, y[3], c1, t3)
		t3, t2 = madd3(m, q3, c0, c2, c1)
	}
	z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	f.reduce(z)
}

// Square sets z = x². (Same CIOS core as Mul; a dedicated squaring would
// save the duplicated cross products, but the measured hot paths are
// already allocation-free and the shared core keeps one code path to
// audit.)
func (f *Field) Square(z, x *Element) { f.Mul(z, x, x) }

// oneRaw is the plain integer 1 (NOT Montgomery form): montMul by it
// divides by R, leaving Montgomery form.
var oneRaw = Element{1, 0, 0, 0}

// fromMont sets z to the raw (non-Montgomery) limbs of x's value.
func (f *Field) fromMont(z, x *Element) { f.Mul(z, x, &oneRaw) }

// --- exponentiation and inversion ------------------------------------------

// Exp sets z = x^e (e ≥ 0 as a big.Int; e = 0 yields 1) by MSB-first
// square-and-multiply. x is passed by value so z may alias anything.
func (f *Field) Exp(z *Element, x Element, e *big.Int) {
	acc := f.one
	for i := e.BitLen() - 1; i >= 0; i-- {
		f.Square(&acc, &acc)
		if e.Bit(i) == 1 {
			f.Mul(&acc, &acc, &x)
		}
	}
	*z = acc
}

// Inverse sets z = x⁻¹ for prime q, via the binary extended Euclidean
// algorithm on the raw value (division-free: only limb shifts, adds and
// subtracts) followed by one Montgomery correction multiply. Inverse of
// zero is defined as zero, mirroring the convention of batch verifiers.
func (f *Field) Inverse(z, x *Element) {
	if x.IsZero() {
		*z = Element{}
		return
	}
	var u Element
	f.fromMont(&u, x) // the raw value a
	v := Element(f.q)
	x1 := oneRaw
	var x2 Element
	// Invariants: x1·a ≡ u and x2·a ≡ v (mod q). Halving a coefficient adds
	// q first when it is odd (q odd ⇒ exactly one of c, c+q is even).
	for !u.isOne() && !v.isOne() {
		for u[0]&1 == 0 {
			u.shiftRight1(0)
			x1.halveModQ(&f.q)
		}
		for v[0]&1 == 0 {
			v.shiftRight1(0)
			x2.halveModQ(&f.q)
		}
		if !u.lessThan((*[4]uint64)(&v)) {
			u.subNoBorrow(&v)
			f.Sub(&x1, &x1, &x2)
		} else {
			v.subNoBorrow(&u)
			f.Sub(&x2, &x2, &x1)
		}
	}
	inv := x1
	if v.isOne() {
		inv = x2
	}
	// inv = a⁻¹ raw; the Montgomery form of x⁻¹ = a⁻¹·R = montMul(inv, R²).
	f.Mul(z, &inv, &f.r2)
}

func (z *Element) isOne() bool { return z[0] == 1 && z[1]|z[2]|z[3] == 0 }

// shiftRight1 halves z, shifting top into the high bit.
func (z *Element) shiftRight1(top uint64) {
	z[0] = z[0]>>1 | z[1]<<63
	z[1] = z[1]>>1 | z[2]<<63
	z[2] = z[2]>>1 | z[3]<<63
	z[3] = z[3]>>1 | top<<63
}

// halveModQ sets z = z/2 mod q for raw-domain z in [0, q): even values
// shift, odd values add q first (the carry becomes the shifted-in bit).
func (z *Element) halveModQ(q *[4]uint64) {
	if z[0]&1 == 0 {
		z.shiftRight1(0)
		return
	}
	var c uint64
	z[0], c = bits.Add64(z[0], q[0], 0)
	z[1], c = bits.Add64(z[1], q[1], c)
	z[2], c = bits.Add64(z[2], q[2], c)
	z[3], c = bits.Add64(z[3], q[3], c)
	z.shiftRight1(c)
}

// subNoBorrow sets z = z − y for z ≥ y.
func (z *Element) subNoBorrow(y *Element) {
	var b uint64
	z[0], b = bits.Sub64(z[0], y[0], 0)
	z[1], b = bits.Sub64(z[1], y[1], b)
	z[2], b = bits.Sub64(z[2], y[2], b)
	z[3], _ = bits.Sub64(z[3], y[3], b)
}

// BatchInvert inverts every element of xs in place with a single field
// inversion (Montgomery's trick). Zero elements stay zero and do not
// perturb their neighbours. scratch must be at least len(xs) Elements (it
// is overwritten); passing the caller's reusable buffer keeps whole-batch
// normalizations allocation-free.
func (f *Field) BatchInvert(xs []Element, scratch []Element) {
	acc := f.one
	for i := range xs {
		scratch[i] = acc // prefix product of the nonzero elements
		if !xs[i].IsZero() {
			f.Mul(&acc, &acc, &xs[i])
		}
	}
	var inv Element
	f.Inverse(&inv, &acc)
	for i := len(xs) - 1; i >= 0; i-- {
		if xs[i].IsZero() {
			continue
		}
		var zi Element
		f.Mul(&zi, &inv, &scratch[i]) // 1/x_i
		f.Mul(&inv, &inv, &xs[i])     // strip x_i for the next step
		xs[i] = zi
	}
}

// --- boundary conversions ---------------------------------------------------

// SetOne sets z = 1.
func (f *Field) SetOne(z *Element) { *z = f.one }

// One returns the Montgomery form of 1.
func (f *Field) One() Element { return f.one }

// SetUint64 sets z to the small integer v.
func (f *Field) SetUint64(z *Element, v uint64) {
	*z = Element{v, 0, 0, 0}
	f.Mul(z, z, &f.r2)
}

// SetBig sets z to v mod q. Canonical inputs (0 ≤ v < q) convert without
// allocating; anything else pays one big.Int reduction.
func (f *Field) SetBig(z *Element, v *big.Int) {
	if v.Sign() < 0 || v.Cmp(f.mod) >= 0 {
		v = new(big.Int).Mod(v, f.mod)
	}
	bigToLimbs((*[4]uint64)(z), v)
	f.Mul(z, z, &f.r2)
}

// ToBig sets out to the value of x and returns it (allocating if out is
// nil). This is the egress conversion: exact, canonical in [0, q).
func (f *Field) ToBig(out *big.Int, x *Element) *big.Int {
	if out == nil {
		out = new(big.Int)
	}
	var raw Element
	f.fromMont(&raw, x)
	var b [32]byte
	binary.BigEndian.PutUint64(b[0:8], raw[3])
	binary.BigEndian.PutUint64(b[8:16], raw[2])
	binary.BigEndian.PutUint64(b[16:24], raw[1])
	binary.BigEndian.PutUint64(b[24:32], raw[0])
	return out.SetBytes(b[:])
}

// Bytes32 returns the canonical 32-byte big-endian encoding of x.
func (f *Field) Bytes32(x *Element) [32]byte {
	var raw Element
	f.fromMont(&raw, x)
	var b [32]byte
	binary.BigEndian.PutUint64(b[0:8], raw[3])
	binary.BigEndian.PutUint64(b[8:16], raw[2])
	binary.BigEndian.PutUint64(b[16:24], raw[1])
	binary.BigEndian.PutUint64(b[24:32], raw[0])
	return b
}

// ErrNonCanonical is returned by SetBytes32 for encodings ≥ q.
var ErrNonCanonical = errors.New("limb: non-canonical field element encoding")

// SetBytes32 decodes a canonical 32-byte big-endian encoding, rejecting
// values ≥ q (so every field element has exactly one accepted encoding).
func (f *Field) SetBytes32(z *Element, b []byte) error {
	if len(b) != 32 {
		return ErrNonCanonical
	}
	var raw Element
	raw[3] = binary.BigEndian.Uint64(b[0:8])
	raw[2] = binary.BigEndian.Uint64(b[8:16])
	raw[1] = binary.BigEndian.Uint64(b[16:24])
	raw[0] = binary.BigEndian.Uint64(b[24:32])
	if !raw.lessThan(&f.q) {
		return ErrNonCanonical
	}
	*z = raw
	f.Mul(z, z, &f.r2)
	return nil
}

// bigToLimbs fills z with the little-endian limbs of v (0 ≤ v < 2^256),
// without allocating and independent of big.Word's platform size.
func bigToLimbs(z *[4]uint64, v *big.Int) {
	var b [32]byte
	v.FillBytes(b[:])
	z[3] = binary.BigEndian.Uint64(b[0:8])
	z[2] = binary.BigEndian.Uint64(b[8:16])
	z[1] = binary.BigEndian.Uint64(b[16:24])
	z[0] = binary.BigEndian.Uint64(b[24:32])
}
