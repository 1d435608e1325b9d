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
// with no doublings at all:
//
//	table[w][d-1] = d · 2^(w·width) · B,   d ∈ [1, 2^width)
//
// so k·B = Σ_w table[w][digit_w(k)] is at most ⌈255/width⌉ mixed Jacobian
// additions. The table width is the package constant FixedBaseWindowBits
// (8): 32 windows of 255 points each, 8,160 affine points per base, held as
// limbs (~512 KiB of coordinates). Tables are built in Jacobian coordinates
// and normalized with ONE shared field inversion (batchAffine; the build
// spends one more on its 32 window bases), and MulMany/MulManyAdd
// extend that idiom to whole batches of results: one inversion per batch
// of ciphertexts instead of one per group operation.

const (
	// FixedBaseWindowBits is the radix-2^w window width of every fixed-base
	// table. Width 8 puts a 254-bit scalar multiplication at ≤32 mixed
	// additions for a 32×255-point (~512 KiB) table per base. A build costs
	// as much as ~90 variable-base multiplications, so internal/group builds
	// one only for a base that has already served that many (see
	// group.SharedBase).
	FixedBaseWindowBits = 8

	// fixedBaseWindows covers scalars up to 255 bits (reduced scalars are
	// < r < 2^254, with one spare window for safety).
	fixedBaseWindows = (255 + FixedBaseWindowBits - 1) / FixedBaseWindowBits

	fixedBaseRowLen = 1<<FixedBaseWindowBits - 1 // digits 1 .. 2^width−1
)

// FixedBaseTable is a windowed precomputation for one fixed G1 base.
// Tables are immutable after construction and safe for concurrent use.
type FixedBaseTable struct {
	// winL[w][d-1] = d·2^(w·width)·base, affine so every table hit is a
	// cheap mixed addition.
	winL [][]G1
}

// NewFixedBaseTable builds the window table for base. The 32 window bases
// 2^(w·width)·base come first, by doubling, and are normalized with one
// field inversion; each row is then a chain of ~2^w mixed additions of its
// affine window base (7M+4S each, against 11M+5S for a Jacobian addition
// of an unnormalized base), and a second inversion normalizes the whole
// table. Mul then costs at most ⌈255/w⌉ mixed additions (versus ~254
// doublings + ~127 additions for a cold double-and-add).
func NewFixedBaseTable(base *G1) *FixedBaseTable {
	t := &FixedBaseTable{}
	if base.Inf {
		return t // every Mul returns the identity
	}
	var winBases [fixedBaseWindows]g1JacL
	winBases[0].setAffine(base)
	for w := 1; w < fixedBaseWindows; w++ {
		winBases[w] = winBases[w-1]
		for b := 0; b < FixedBaseWindowBits; b++ {
			jacLDouble(&winBases[w])
		}
	}
	winAff := batchAffine(winBases[:])
	flat := make([]g1JacL, fixedBaseWindows*fixedBaseRowLen)
	for w := range winAff {
		row := flat[w*fixedBaseRowLen : (w+1)*fixedBaseRowLen]
		row[0].setAffine(&winAff[w])
		for d := 1; d < fixedBaseRowLen; d++ {
			row[d] = row[d-1]
			jacLAddMixed(&row[d], &winAff[w])
		}
	}
	affine := batchAffine(flat)
	t.winL = make([][]G1, fixedBaseWindows)
	for w := range t.winL {
		t.winL[w] = affine[w*fixedBaseRowLen : (w+1)*fixedBaseRowLen]
	}
	return t
}

// mulJacL computes s·base in Jacobian coordinates; s must be reduced mod r.
func (t *FixedBaseTable) mulJacL(s *big.Int) g1JacL {
	var acc g1JacL
	if t.winL == nil || s.Sign() == 0 {
		return acc
	}
	for w := 0; w*FixedBaseWindowBits < s.BitLen(); w++ {
		if d := msmBucketIndex(s, w, FixedBaseWindowBits); d != 0 {
			jacLAddMixed(&acc, &t.winL[w][d-1])
		}
	}
	return acc
}

// Mul returns k·base (k reduced modulo the group order).
func (t *FixedBaseTable) Mul(k *big.Int) *G1 {
	acc := t.mulJacL(new(big.Int).Mod(k, params().R))
	res := acc.affine()
	return &res
}

// MulMany returns k·base for every scalar, sharing ONE field inversion
// across the whole batch (nil scalars yield nil results). The returned
// points are identical to calling Mul per scalar.
func (t *FixedBaseTable) MulMany(ks []*big.Int) []*G1 {
	r := params().R
	jacs := make([]g1JacL, len(ks))
	for i, k := range ks {
		if k != nil {
			jacs[i] = t.mulJacL(new(big.Int).Mod(k, r))
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
// (nil addends are treated as the identity).
func (t *FixedBaseTable) MulManyAdd(ks []*big.Int, addends []*G1) []*G1 {
	r := params().R
	jacs := make([]g1JacL, len(ks))
	for i, k := range ks {
		s := new(big.Int)
		if k != nil {
			s.Mod(k, r)
		}
		jacs[i] = t.mulJacL(s)
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
