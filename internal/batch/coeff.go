package batch

import (
	"math/big"

	"dragoon/internal/drbg"
)

// CoeffBits is the bit length of a fold exponent. 128-bit exponents give
// 2⁻¹²⁸ soundness slack per fold while keeping the scalar products short of
// a full group-order multiplication; groups with a smaller order cap the
// exponents at the order (the slack is then ≈ 1/order, which is what any
// single equation over that group offers anyway).
const CoeffBits = 128

// coeffBound returns the exclusive upper bound for fold exponents over a
// group of the given order: min(2^CoeffBits, order).
func coeffBound(order *big.Int) *big.Int {
	bound := new(big.Int).Lsh(big.NewInt(1), CoeffBits)
	if order.Cmp(bound) < 0 {
		return order
	}
	return bound
}

// Coefficients derives n distinct nonzero fold exponents in [1, coeffBound)
// from a transcript seed and a domain label. The derivation is a DRBG
// (keccak in counter mode), so identical (transcript, label, n) inputs
// yield identical exponents — the determinism the harness fingerprint tests
// rely on — while an adversary committing to statements before the fold
// cannot aim at the exponents (Fiat–Shamir heuristic). Zero draws and
// duplicates are rejected and redrawn: a zero exponent would erase its
// statement from the fold, and duplicated exponents would let two crafted
// invalid statements cancel each other in the combination.
func Coefficients(transcript []byte, label string, n int, order *big.Int) []*big.Int {
	rnd := drbg.NewFromBytes(transcript, label)
	bound := coeffBound(order)
	byteLen := (bound.BitLen() + 7) / 8
	buf := make([]byte, byteLen)
	out := make([]*big.Int, 0, n)
	seen := make(map[string]bool, n)
	for len(out) < n {
		rnd.Read(buf)
		c := new(big.Int).SetBytes(buf)
		c.Mod(c, bound)
		if c.Sign() == 0 || seen[c.String()] {
			continue
		}
		seen[c.String()] = true
		out = append(out, c)
	}
	return out
}
