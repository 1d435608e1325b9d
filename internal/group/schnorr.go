package group

import (
	"fmt"
	"math/big"
	"sync"
)

// schnorrGroup is a test-only backend: the order-r subgroup of Z_q* for a
// safe prime q = 2r+1. The parameters are far too small for security; the
// backend exists so that property-based tests over the protocol crypto run
// orders of magnitude faster than over BN254.
type schnorrGroup struct {
	q, r *big.Int // modulus and subgroup order
	g    *big.Int // generator of the order-r subgroup
	size int      // marshaled element length in bytes
}

var (
	schnorrOnce sync.Once
	schnorrVal  *schnorrGroup
)

// TestSchnorr returns a small (≈64-bit) Schnorr group for tests. The
// parameters are found deterministically at first use.
func TestSchnorr() Group {
	schnorrOnce.Do(func() {
		// Search for r prime with q = 2r+1 prime, starting from a fixed
		// 62-bit seed so the search is deterministic and instantaneous.
		r := new(big.Int).SetUint64(1<<62 + 1)
		one := big.NewInt(1)
		two := big.NewInt(2)
		for {
			if r.ProbablyPrime(64) {
				q := new(big.Int).Mul(r, two)
				q.Add(q, one)
				if q.ProbablyPrime(64) {
					// Find a generator: h² has order r (or 1) in Z_q*; pick
					// the first square that is not 1.
					for h := int64(2); ; h++ {
						g := new(big.Int).Exp(big.NewInt(h), two, q)
						if g.Cmp(one) != 0 {
							schnorrVal = &schnorrGroup{
								q: q, r: r, g: g,
								size: (q.BitLen() + 7) / 8,
							}
							return
						}
					}
				}
			}
			r.Add(r, two)
		}
	})
	return schnorrVal
}

// schnorrElem wraps a subgroup member of Z_q*.
type schnorrElem struct {
	v *big.Int
}

func (e schnorrElem) String() string { return "Zq(" + e.v.String() + ")" }

var _ Group = (*schnorrGroup)(nil)

func (s *schnorrGroup) Name() string { return "test-schnorr" }

func (s *schnorrGroup) Order() *big.Int { return new(big.Int).Set(s.r) }

func (s *schnorrGroup) Generator() Element { return schnorrElem{v: new(big.Int).Set(s.g)} }

func (s *schnorrGroup) Identity() Element { return schnorrElem{v: big.NewInt(1)} }

func asSchnorr(a Element) schnorrElem {
	e, ok := a.(schnorrElem)
	if !ok {
		panic(ErrWrongGroup)
	}
	return e
}

// Add is the group operation (multiplication mod q; the group is written
// additively at the interface).
func (s *schnorrGroup) Add(a, b Element) Element {
	v := new(big.Int).Mul(asSchnorr(a).v, asSchnorr(b).v)
	return schnorrElem{v: v.Mod(v, s.q)}
}

func (s *schnorrGroup) Neg(a Element) Element {
	return schnorrElem{v: new(big.Int).ModInverse(asSchnorr(a).v, s.q)}
}

func (s *schnorrGroup) ScalarMul(a Element, k *big.Int) Element {
	e := new(big.Int).Mod(k, s.r)
	return schnorrElem{v: new(big.Int).Exp(asSchnorr(a).v, e, s.q)}
}

func (s *schnorrGroup) ScalarBaseMul(k *big.Int) Element {
	return s.ScalarMul(s.Generator(), k)
}

func (s *schnorrGroup) Equal(a, b Element) bool {
	return asSchnorr(a).v.Cmp(asSchnorr(b).v) == 0
}

func (s *schnorrGroup) IsIdentity(a Element) bool {
	return asSchnorr(a).v.Cmp(big.NewInt(1)) == 0
}

func (s *schnorrGroup) Marshal(a Element) []byte {
	out := make([]byte, s.size)
	asSchnorr(a).v.FillBytes(out)
	return out
}

func (s *schnorrGroup) Unmarshal(data []byte) (Element, error) {
	if len(data) != s.size {
		return nil, fmt.Errorf("group: bad schnorr element length %d", len(data))
	}
	v := new(big.Int).SetBytes(data)
	if v.Sign() <= 0 || v.Cmp(s.q) >= 0 {
		return nil, fmt.Errorf("group: schnorr element out of range")
	}
	// Membership check: v^r must be 1.
	if new(big.Int).Exp(v, s.r, s.q).Cmp(big.NewInt(1)) != 0 {
		return nil, fmt.Errorf("group: value is not in the order-r subgroup")
	}
	return schnorrElem{v: v}, nil
}

func (s *schnorrGroup) ElementLen() int { return s.size }

// schnorrFixedBase precomputes base^(2^(w·width)·d) rows so a fixed-base
// exponentiation becomes a handful of modular multiplications — the same
// windowed shape as the BN254 tables, sized for the ≈62-bit test group.
type schnorrFixedBase struct {
	g    *schnorrGroup
	base *big.Int
	win  [][]*big.Int // win[w][d-1] = base^(d·2^(w·width)) mod q
}

const schnorrWindowBits = 4

// PrecomputeFixedBase implements the FixedBaser extension for the test
// backend, so precomputed and generic paths are both exercised by the
// Schnorr-group protocol tests.
func (s *schnorrGroup) PrecomputeFixedBase(base Element) FixedBase {
	b := asSchnorr(base).v
	bits := s.r.BitLen() + 1
	windows := (bits + schnorrWindowBits - 1) / schnorrWindowBits
	rowLen := 1<<schnorrWindowBits - 1
	win := make([][]*big.Int, windows)
	cur := new(big.Int).Set(b)
	for w := 0; w < windows; w++ {
		row := make([]*big.Int, rowLen)
		row[0] = new(big.Int).Set(cur)
		for d := 1; d < rowLen; d++ {
			row[d] = new(big.Int).Mul(row[d-1], cur)
			row[d].Mod(row[d], s.q)
		}
		win[w] = row
		for i := 0; i < schnorrWindowBits; i++ {
			cur.Mul(cur, cur).Mod(cur, s.q)
		}
	}
	return &schnorrFixedBase{g: s, base: b, win: win}
}

var _ FixedBaser = (*schnorrGroup)(nil)

func (f *schnorrFixedBase) mul(k *big.Int) *big.Int {
	e := new(big.Int).Mod(k, f.g.r)
	acc := big.NewInt(1)
	mask := int64(1<<schnorrWindowBits - 1)
	tmp := new(big.Int)
	for w := 0; w < len(f.win) && w*schnorrWindowBits < e.BitLen(); w++ {
		d := tmp.Rsh(e, uint(w*schnorrWindowBits)).Int64() & mask
		if d != 0 {
			acc.Mul(acc, f.win[w][d-1]).Mod(acc, f.g.q)
		}
	}
	return acc
}

func (f *schnorrFixedBase) Mul(k *big.Int) Element { return schnorrElem{v: f.mul(k)} }

func (f *schnorrFixedBase) MulMany(ks []*big.Int) []Element {
	out := make([]Element, len(ks))
	for i, k := range ks {
		if k == nil {
			continue
		}
		out[i] = schnorrElem{v: f.mul(k)}
	}
	return out
}

func (f *schnorrFixedBase) MulManyAdd(ks []*big.Int, addends []Element) []Element {
	out := make([]Element, len(ks))
	for i, k := range ks {
		s := k
		if s == nil {
			s = big.NewInt(0)
		}
		v := f.mul(s)
		if i < len(addends) && addends[i] != nil {
			v.Mul(v, asSchnorr(addends[i]).v).Mod(v, f.g.q)
		}
		out[i] = schnorrElem{v: v}
	}
	return out
}
