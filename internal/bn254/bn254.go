// Package bn254 implements the BN254 elliptic curve (a.k.a. alt_bn128, or
// "BN-128" in the Dragoon paper), the pairing-friendly curve whose G1
// subgroup backs all of the paper's public-key primitives and whose pairing
// backs the zk-SNARK baseline (generic ZKP) that the paper compares against.
//
// The implementation is self-contained on the standard library:
//
//   - Fp, and the tower Fp2 = Fp[i]/(i²+1), Fp6 = Fp2[v]/(v³-ξ) with
//     ξ = 9+i, Fp12 = Fp6[w]/(w²-v);
//   - G1 (y² = x³ + 3 over Fp) and G2 (y² = x³ + 3/ξ over Fp2, the D-type
//     sextic twist), with Jacobian scalar multiplication;
//   - the optimal-ate pairing e: G1 × G2 → Fp12, implemented with an
//     affine Miller loop over the untwisted curve E(Fp12) and a plain
//     (p¹²-1)/r final exponentiation. The style favours auditability over
//     raw speed; it is more than fast enough for the paper's workloads.
//
// G1 points hold their coordinates in internal/limb's 4×64-bit Montgomery
// form (fp.go), and every G1 operation — the group law, the codec, the GLV
// ladder, Pippenger buckets and fixed-base windows — runs on that one
// representation. Only the pairing, which embeds a G1 point into Fp12, and
// String read a G1 coordinate as a big.Int. G2, the tower fields and the
// pairing keep *big.Int elements reduced in [0, p). The tests check every
// G1 path against an affine double-and-add over a big.Int group law that
// lives only in the tests.
//
// Curve parameters (BN parameterization with u = 4965661367192848881):
//
//	p = 36u⁴+36u³+24u²+6u+1  (field modulus)
//	r = 36u⁴+36u³+18u²+6u+1  (group order)
package bn254

import (
	"math/big"
	"sync"

	"dragoon/internal/limb"
)

// Decimal constants for the curve parameters. They are cross-checked against
// the BN polynomial parameterization at first use (see params()).
const (
	pDecimal = "21888242871839275222246405745257275088696311157297823662689037894645226208583"
	rDecimal = "21888242871839275222246405745257275088548364400416034343698204186575808495617"
	uDecimal = "4965661367192848881"
)

// curveParams bundles every derived constant the package needs. All of them
// are computed once, lazily, so the package has no init() function.
type curveParams struct {
	P *big.Int // base-field modulus
	R *big.Int // prime order of G1/G2
	U *big.Int // BN parameter

	loopCount *big.Int // 6u+2, the optimal-ate Miller loop count
	finalExp  *big.Int // (p¹² − 1) / r

	fp *limb.Field // Fp in Montgomery limb form, the field of G1's coordinates
	b  fpElem      // G1 curve coefficient: 3
	b2 fp2Elem     // G2 curve coefficient: 3/ξ

	xi fp2Elem // the sextic non-residue ξ = 9 + i

	g1 G1  // generator of G1: (1, 2)
	g2 *G2 // generator of G2 (EIP-197 constants, verified at startup)
}

var (
	paramsOnce sync.Once
	paramsVal  *curveParams
)

// params returns the lazily-computed package constants.
func params() *curveParams {
	paramsOnce.Do(func() {
		p := mustBig(pDecimal)
		r := mustBig(rDecimal)
		u := mustBig(uDecimal)

		// Cross-check p and r against the BN polynomial parameterization:
		// p(u) = 36u⁴+36u³+24u²+6u+1, r(u) = 36u⁴+36u³+18u²+6u+1.
		u2 := new(big.Int).Mul(u, u)
		u3 := new(big.Int).Mul(u2, u)
		u4 := new(big.Int).Mul(u3, u)
		poly := func(c4, c3, c2, c1, c0 int64) *big.Int {
			s := new(big.Int).Mul(u4, big.NewInt(c4))
			s.Add(s, new(big.Int).Mul(u3, big.NewInt(c3)))
			s.Add(s, new(big.Int).Mul(u2, big.NewInt(c2)))
			s.Add(s, new(big.Int).Mul(u, big.NewInt(c1)))
			return s.Add(s, big.NewInt(c0))
		}
		if poly(36, 36, 24, 6, 1).Cmp(p) != 0 {
			panic("bn254: modulus constant does not match BN parameterization")
		}
		if poly(36, 36, 18, 6, 1).Cmp(r) != 0 {
			panic("bn254: order constant does not match BN parameterization")
		}

		// BN254's modulus satisfies the CIOS no-carry bound, so MustField
		// cannot fail.
		cp := &curveParams{P: p, R: r, U: u, fp: limb.MustField(p)}
		cp.fp.SetUint64(&cp.b, 3)

		// Miller loop count 6u+2.
		cp.loopCount = new(big.Int).Mul(big.NewInt(6), u)
		cp.loopCount.Add(cp.loopCount, big.NewInt(2))

		// Final exponent (p¹² − 1)/r.
		p12 := new(big.Int).Exp(p, big.NewInt(12), nil)
		p12.Sub(p12, big.NewInt(1))
		q, rem := new(big.Int).QuoRem(p12, r, new(big.Int))
		if rem.Sign() != 0 {
			panic("bn254: r does not divide p^12 - 1")
		}
		cp.finalExp = q

		// ξ = 9 + i and the twist coefficient b' = 3/ξ.
		cp.xi = fp2Elem{A0: big.NewInt(9), A1: big.NewInt(1)}
		three := fp2Elem{A0: big.NewInt(3), A1: big.NewInt(0)}
		cp.b2 = fp2MulP(three, fp2InvP(cp.xi, p), p)

		// Generators.
		cp.fp.SetUint64(&cp.g1.x, 1)
		cp.fp.SetUint64(&cp.g1.y, 2)
		cp.g2 = &G2{
			X: fp2Elem{
				A0: mustBig("10857046999023057135944570762232829481370756359578518086990519993285655852781"),
				A1: mustBig("11559732032986387107991004021392285783925812861821192530917403151452391805634"),
			},
			Y: fp2Elem{
				A0: mustBig("8495653923123431417604973247489272438418190587263600148770280649306958101930"),
				A1: mustBig("4082367875863433681332203403145435568316851327593401208105741076214120093531"),
			},
		}
		if !cp.g2.isOnCurveWith(cp) {
			panic("bn254: G2 generator is not on the twist")
		}

		paramsVal = cp
	})
	return paramsVal
}

// P returns the base-field modulus.
func P() *big.Int { return new(big.Int).Set(params().P) }

// Order returns the prime order r of G1 and G2 (the scalar field modulus).
func Order() *big.Int { return new(big.Int).Set(params().R) }

func mustBig(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("bn254: bad integer literal")
	}
	return v
}

// --- base-field helpers for the tower ---------------------------------------
//
// The coefficients of Fp2 elements (and so of Fp6, Fp12 and G2) are *big.Int
// values kept reduced in [0, p). Helpers always allocate a fresh result, so
// callers may alias arguments freely.

func fpAdd(a, b, p *big.Int) *big.Int {
	s := new(big.Int).Add(a, b)
	if s.Cmp(p) >= 0 {
		s.Sub(s, p)
	}
	return s
}

func fpSub(a, b, p *big.Int) *big.Int {
	s := new(big.Int).Sub(a, b)
	if s.Sign() < 0 {
		s.Add(s, p)
	}
	return s
}

func fpMul(a, b, p *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), p)
}

func fpNeg(a, p *big.Int) *big.Int {
	if a.Sign() == 0 {
		return new(big.Int)
	}
	return new(big.Int).Sub(p, a)
}

func fpInv(a, p *big.Int) *big.Int {
	return new(big.Int).ModInverse(a, p)
}
