package bn254

import (
	"math/big"
	"sync"
)

// Fixed-base precomputation. Most scalar multiplications in the protocol's
// hot loops are over bases that never change — the G1/G2 generators (every
// ElGamal encryption, every Schnorr/VPKE proof, the whole Groth16 trusted
// setup), the requester public key h (the second half of every encryption
// and one verification equation of every VPKE proof), and commitment bases.
// FixedBaseTable trades a one-time table build per base for multiplications
// with no doublings at all. The scalar is read in radix-2^8 windows with
// signed digits dᵥ ∈ [−127, 128] (a window above 128 borrows 256 from the
// next one), and
//
//	row[w][|d|−1] = |d| · 2^(8w) · B,   |d| ∈ [1, 128]
//
// so k·B = Σ_w ±row[w][|dᵥ|−1] is at most 32 mixed Jacobian additions, a
// negative digit negating a copy of the entry's y. A G1 table holds 32 rows
// of 128 affine points as bare limb (x, y) pairs: 4,096 points, 256 KiB of
// coordinates. Tables are built in Jacobian coordinates and normalized with
// ONE shared field inversion (normalize; the build spends one more on its
// 32 window bases), and MulMany/MulManyAdd extend that idiom to whole
// batches of results: one inversion per batch of ciphertexts instead of
// one per group operation. The G2 generator's table, used only by the
// Groth16 baseline, keeps unsigned digits: 32 rows of 255 points.

const (
	// FixedBaseWindowBits is the radix-2^w window width of every fixed-base
	// table. Width 8 puts a 254-bit scalar multiplication at ≤32 mixed
	// additions for a 32×128-point (256 KiB) G1 table per base. A build
	// costs as much as ~60 variable-base multiplications, so
	// internal/group builds one only for a base that has already served
	// that many (see group.SharedBase).
	FixedBaseWindowBits = 8

	// fixedBaseWindows covers scalars up to 256 bits (reduced scalars are
	// < r < 2^254, so the signed recoding never carries out of the top
	// window).
	fixedBaseWindows = (256 + FixedBaseWindowBits - 1) / FixedBaseWindowBits

	fixedBaseHalfRow = 1 << (FixedBaseWindowBits - 1) // G1 rows: |d| in 1 .. 2^(width−1)
	fixedBaseRowLen  = 1<<FixedBaseWindowBits - 1     // G2 rows: d in 1 .. 2^width−1
)

// FixedBaseTable is a signed-digit window precomputation for one fixed G1
// base. Tables are immutable after construction and safe for concurrent
// use.
type FixedBaseTable struct {
	// rows[w·fixedBaseHalfRow + d−1] = d·2^(w·width)·base for d in
	// 1 .. fixedBaseHalfRow, affine so every table hit is a cheap mixed
	// addition; nil for the identity base.
	rows []xy
}

// NewFixedBaseTable builds the window table for base. The 32 window bases
// 2^(w·width)·base come first, by doubling, and are normalized with one
// field inversion; each row is then a chain of 127 mixed additions of its
// affine window base (7M+4S each, against 11M+5S for a Jacobian addition
// of an unnormalized base), and a second inversion normalizes the whole
// table. Mul then costs at most 32 mixed additions (versus ~128 doublings
// + ~43 additions for a cold GLV multiplication).
func NewFixedBaseTable(base *G1) *FixedBaseTable {
	t := &FixedBaseTable{}
	if base.Inf {
		return t // every Mul returns the identity
	}
	var winBases [fixedBaseWindows]g1JacL
	var zs, scratch [fixedBaseWindows]fpElem
	winBases[0].setAffine(base)
	for w := 1; w < fixedBaseWindows; w++ {
		winBases[w] = winBases[w-1]
		for b := 0; b < FixedBaseWindowBits; b++ {
			jacLDouble(&winBases[w])
		}
	}
	normalize(winBases[:], zs[:], scratch[:])
	flat := make([]g1JacL, fixedBaseWindows*fixedBaseHalfRow)
	for w := range winBases {
		wb := &winBases[w]
		row := flat[w*fixedBaseHalfRow : (w+1)*fixedBaseHalfRow]
		row[0] = *wb
		for d := 1; d < fixedBaseHalfRow; d++ {
			row[d] = row[d-1]
			jacLAddAffine(&row[d], &wb.X, &wb.Y)
		}
	}
	inv := make([]fpElem, 2*len(flat))
	normalize(flat, inv[:len(flat)], inv[len(flat):])
	t.rows = make([]xy, len(flat))
	for i := range flat {
		t.rows[i] = xy{x: flat[i].X, y: flat[i].Y}
	}
	return t
}

// mulJacL computes s·base in Jacobian coordinates, reading the signed
// digits straight from the limbs of s (< r).
func (t *FixedBaseTable) mulJacL(s *[4]uint64) g1JacL {
	var acc g1JacL
	if t.rows == nil {
		return acc
	}
	carry := 0
	for w := 0; w < fixedBaseWindows; w++ {
		d := int(s[w/8]>>(8*(w%8))&0xff) + carry
		carry = 0
		if d > fixedBaseHalfRow {
			d -= 1 << FixedBaseWindowBits
			carry = 1
		}
		switch {
		case d > 0:
			e := &t.rows[w*fixedBaseHalfRow+d-1]
			jacLAddAffine(&acc, &e.x, &e.y)
		case d < 0:
			e := &t.rows[w*fixedBaseHalfRow-d-1]
			var ny fpElem
			params().fp.Neg(&ny, &e.y)
			jacLAddAffine(&acc, &e.x, &ny)
		}
	}
	return acc
}

// Mul returns k·base (k reduced modulo the group order).
func (t *FixedBaseTable) Mul(k *big.Int) *G1 {
	s := scalarLimbs(k)
	acc := t.mulJacL(&s)
	res := acc.affine()
	return &res
}

// MulMany returns k·base for every scalar, sharing ONE field inversion
// across the whole batch (nil scalars yield nil results). The returned
// points are identical to calling Mul per scalar.
func (t *FixedBaseTable) MulMany(ks []*big.Int) []*G1 {
	jacs := make([]g1JacL, len(ks))
	for i, k := range ks {
		if k != nil {
			s := scalarLimbs(k)
			jacs[i] = t.mulJacL(&s)
		}
	}
	affs := batchAffine(jacs)
	out := make([]*G1, len(ks))
	for i, k := range ks {
		if k != nil {
			out[i] = &affs[i]
		}
	}
	return out
}

// MulManyAdd returns ks[i]·base + addends[i] for every i, again with one
// shared inversion per batch — the encryption kernel's c2 = g^m · h^r shape
// (nil scalars are treated as zero and nil addends as the identity).
func (t *FixedBaseTable) MulManyAdd(ks []*big.Int, addends []*G1) []*G1 {
	jacs := make([]g1JacL, len(ks))
	for i, k := range ks {
		if k != nil {
			s := scalarLimbs(k)
			jacs[i] = t.mulJacL(&s)
		}
		if i < len(addends) && addends[i] != nil {
			jacLAddMixed(&jacs[i], addends[i])
		}
	}
	affs := batchAffine(jacs)
	out := make([]*G1, len(affs))
	for i := range affs {
		out[i] = &affs[i]
	}
	return out
}

// --- generator tables -------------------------------------------------------

var (
	g1GenTableOnce sync.Once
	g1GenTable     *FixedBaseTable

	g2TableOnce sync.Once
	g2Table     [][]*G2 // g2Table[w][d-1] = d·2^(w·width)·H
)

// G1GeneratorTable returns the process-wide fixed-base table for the G1
// generator (built once, shared by ScalarBaseMul and the trusted setup).
func G1GeneratorTable() *FixedBaseTable {
	g1GenTableOnce.Do(func() {
		g1GenTable = NewFixedBaseTable(&params().g1)
	})
	return g1GenTable
}

// g1FixedBaseMul computes k·G using the generator's window table.
func g1FixedBaseMul(k *big.Int) *G1 {
	return G1GeneratorTable().Mul(k)
}

func buildG2Table() {
	p := params().P
	cur := params().g2.jacobian()
	g2Table = make([][]*G2, fixedBaseWindows)
	flat := make([]g2Jac, 0, fixedBaseWindows*fixedBaseRowLen)
	for w := 0; w < fixedBaseWindows; w++ {
		row := make([]g2Jac, fixedBaseRowLen)
		row[0] = cur
		for d := 1; d < fixedBaseRowLen; d++ {
			row[d] = g2JacAdd(row[d-1], cur, p)
		}
		flat = append(flat, row...)
		for b := 0; b < FixedBaseWindowBits; b++ {
			cur = g2JacDouble(cur, p)
		}
	}
	affine := g2BatchAffine(flat)
	for w := 0; w < fixedBaseWindows; w++ {
		g2Table[w] = affine[w*fixedBaseRowLen : (w+1)*fixedBaseRowLen]
	}
}

// g2FixedBaseMul computes k·H using the precomputed window table,
// accumulating in Jacobian coordinates (one Fp2 inversion total).
func g2FixedBaseMul(k *big.Int) *G2 {
	g2TableOnce.Do(buildG2Table)
	s := new(big.Int).Mod(k, params().R)
	if s.Sign() == 0 {
		return G2Infinity()
	}
	p := params().P
	acc := g2JacInfinity()
	for w := 0; w*FixedBaseWindowBits < s.BitLen(); w++ {
		if d := msmBucketIndex(s, w, FixedBaseWindowBits); d != 0 {
			acc = g2JacAddMixed(acc, g2Table[w][d-1], p)
		}
	}
	return acc.affine()
}
