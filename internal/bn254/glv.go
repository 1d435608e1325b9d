package bn254

import (
	"math/big"
	"sync"
)

// GLV endomorphism decomposition for G1 (Gallant–Lambert–Vanstone). BN254
// has j-invariant 0, so the curve admits the efficient endomorphism
//
//	φ(x, y) = (β·x, y)
//
// with β a primitive cube root of unity in Fp; on the order-r subgroup φ
// acts as multiplication by λ, a primitive cube root of unity in Zr. A
// 256-bit scalar multiplication k·P therefore splits into
//
//	k·P = k1·P + k2·φ(P),   k = k1 + k2·λ (mod r),  |k1|, |k2| ≈ √r,
//
// and the two half-length multiplications run interleaved (Shamir's trick),
// halving the doubling count: ~128 doublings + ~96 additions instead of
// ~254 doublings + ~127 additions for the plain double-and-add ladder.
//
// Every constant — β, λ, and the reduced lattice basis used to split k — is
// derived at first use from the curve parameters (square roots of −3 via
// math/big's ModSqrt, then the extended Euclidean algorithm of (r, λ)) and
// self-verified against the generator, so no magic numbers enter the code.

type glvParams struct {
	beta   fpElem   // cube root of unity in Fp: φ(x,y) = (β·x, y)
	lambda *big.Int // matching cube root of unity in Zr: φ(P) = λ·P
	// Reduced lattice basis of {(x, y) : x + y·λ ≡ 0 (mod r)}; both
	// vectors have ~√r-size coordinates.
	a1, b1 *big.Int
	a2, b2 *big.Int
}

var (
	glvOnce sync.Once
	glvVal  *glvParams
)

// glv computes the GLV constants once, self-verifying against the generator.
func glv() *glvParams {
	glvOnce.Do(func() {
		cp := params()
		p, r := cp.P, cp.R

		// β = (−1 + √−3)/2 in Fp (a root of x² + x + 1).
		g := &glvParams{}
		cp.fp.SetBig(&g.beta, rootOfUnityCube(p))
		// λ: same construction in Zr; two nontrivial roots exist (λ and
		// λ²) and exactly one satisfies φ(G) = λ·G — probe the generator.
		lambda := rootOfUnityCube(r)
		phiG := g.phi(&cp.g1)
		if !genericScalarMul(&cp.g1, lambda).Equal(&phiG) {
			lambda = fpMul(lambda, lambda, r) // the other root
			if !genericScalarMul(&cp.g1, lambda).Equal(&phiG) {
				panic("bn254: no cube root of unity matches the endomorphism")
			}
		}
		g.lambda = lambda

		// Reduced basis via the extended Euclidean algorithm on (r, λ):
		// every remainder rᵢ satisfies sᵢ·r + tᵢ·λ = rᵢ, so (rᵢ, −tᵢ) is
		// a lattice vector; the first remainders below √r give two short,
		// independent ones (GLV'01, "Guide to ECC" Alg. 3.74).
		sqrtR := new(big.Int).Sqrt(r)
		rs := []*big.Int{new(big.Int).Set(r), new(big.Int).Set(lambda)}
		ts := []*big.Int{big.NewInt(0), big.NewInt(1)}
		l := 0
		for i := 1; ; i++ {
			if rs[i].Sign() == 0 {
				panic("bn254: GLV basis search ran out of remainders")
			}
			q, rem := new(big.Int).QuoRem(rs[i-1], rs[i], new(big.Int))
			rs = append(rs, rem)
			ts = append(ts, new(big.Int).Sub(ts[i-1], new(big.Int).Mul(q, ts[i])))
			if rem.Cmp(sqrtR) < 0 {
				l = i // rs[l] is the last remainder ≥ √r
				break
			}
		}
		a1 := new(big.Int).Set(rs[l+1])
		b1 := new(big.Int).Neg(ts[l+1])
		// Second vector: the shorter of (r_l, −t_l) and (r_{l+2}, −t_{l+2}).
		normSq := func(a, b *big.Int) *big.Int {
			return new(big.Int).Add(new(big.Int).Mul(a, a), new(big.Int).Mul(b, b))
		}
		a2 := new(big.Int).Set(rs[l])
		b2 := new(big.Int).Neg(ts[l])
		if len(rs) <= l+2 {
			q, rem := new(big.Int).QuoRem(rs[l], rs[l+1], new(big.Int))
			rs = append(rs, rem)
			ts = append(ts, new(big.Int).Sub(ts[l], new(big.Int).Mul(q, ts[l+1])))
		}
		if normSq(rs[l+2], ts[l+2]).Cmp(normSq(a2, b2)) < 0 {
			a2 = new(big.Int).Set(rs[l+2])
			b2 = new(big.Int).Neg(ts[l+2])
		}

		g.a1, g.b1, g.a2, g.b2 = a1, b1, a2, b2
		glvVal = g
	})
	return glvVal
}

// phi returns φ(a) = (β·x, y); a must be finite.
func (g *glvParams) phi(a *G1) G1 {
	out := G1{y: a.y}
	params().fp.Mul(&out.x, &g.beta, &a.x)
	return out
}

// rootOfUnityCube returns a nontrivial cube root of unity modulo the prime
// m, i.e. a root of x² + x + 1 = 0: (−1 + √−3)/2.
func rootOfUnityCube(m *big.Int) *big.Int {
	s := new(big.Int).ModSqrt(new(big.Int).Sub(m, big.NewInt(3)), m)
	if s == nil {
		panic("bn254: -3 is not a square — not a BN field")
	}
	inv2 := new(big.Int).ModInverse(big.NewInt(2), m)
	root := new(big.Int).Sub(s, big.NewInt(1))
	root.Mul(root, inv2).Mod(root, m)
	check := new(big.Int).Mul(root, root)
	check.Add(check, root).Add(check, big.NewInt(1)).Mod(check, m)
	if check.Sign() != 0 || root.Cmp(big.NewInt(1)) == 0 {
		panic("bn254: cube-root-of-unity construction failed")
	}
	return root
}

// glvDecomposeBits bounds the sub-scalar size the decomposition may yield;
// anything larger signals a degenerate basis and falls back to the generic
// ladder (never observed — the bound is a safety net, and the fuzz target
// hammers it).
const glvDecomposeBits = 140

// GLVDecompose splits a scalar k into (k1, k2) with k1 + k2·λ ≡ k (mod r)
// and both halves ~√r-sized. It is exported for the decomposition fuzz
// target and differential tests; ok reports whether the result passed the
// built-in soundness check (congruence and size bounds).
func GLVDecompose(k *big.Int) (k1, k2 *big.Int, ok bool) {
	cp := params()
	g := glv()
	s := new(big.Int).Mod(k, cp.R)
	// Round(b2·s/r) and Round(−b1·s/r): nearest-integer division, computed
	// as floor((2n + d)/2d) with floor semantics for negative n.
	c1 := roundDiv(new(big.Int).Mul(g.b2, s), cp.R)
	c2 := roundDiv(new(big.Int).Neg(new(big.Int).Mul(g.b1, s)), cp.R)
	k1 = new(big.Int).Set(s)
	k1.Sub(k1, new(big.Int).Mul(c1, g.a1))
	k1.Sub(k1, new(big.Int).Mul(c2, g.a2))
	k2 = new(big.Int).Neg(new(big.Int).Mul(c1, g.b1))
	k2.Sub(k2, new(big.Int).Mul(c2, g.b2))

	// Soundness: k1 + k2·λ ≡ k (mod r) and both halves short.
	chk := new(big.Int).Mul(k2, g.lambda)
	chk.Add(chk, k1).Sub(chk, s).Mod(chk, cp.R)
	ok = chk.Sign() == 0 && k1.BitLen() <= glvDecomposeBits && k2.BitLen() <= glvDecomposeBits
	return k1, k2, ok
}

// roundDiv returns the nearest integer to n/d for d > 0 (ties round up),
// using floor division so negative numerators round correctly.
func roundDiv(n, d *big.Int) *big.Int {
	num := new(big.Int).Lsh(n, 1)
	num.Add(num, d)
	den := new(big.Int).Lsh(d, 1)
	out := new(big.Int)
	out.Div(num, den) // Euclidean: floor for positive divisors
	return out
}

// glvMul computes s·a via the endomorphism split; s must be reduced and
// nonzero and a finite. A nil return means the decomposition failed its
// soundness check and the caller must fall back to the generic ladder.
func (a *G1) glvMul(s *big.Int) *G1 {
	k1, k2, ok := GLVDecompose(s)
	if !ok {
		return nil
	}
	f := params().fp
	p1 := *a
	if k1.Sign() < 0 {
		f.Neg(&p1.y, &p1.y)
		k1.Neg(k1)
	}
	p2 := glv().phi(a)
	if k2.Sign() < 0 {
		f.Neg(&p2.y, &p2.y)
		k2.Neg(k2)
	}
	// The joint-bit entry P1 + P2, normalized once so every ladder step is
	// a mixed addition; it may be the identity (handled by jacLAddMixed).
	var j12 g1JacL
	j12.setAffine(&p1)
	jacLAddMixed(&j12, &p2)
	p12 := j12.affine()

	n := k1.BitLen()
	if b := k2.BitLen(); b > n {
		n = b
	}
	// Shamir's trick: one shared doubling chain over both half-scalars.
	var acc g1JacL
	for i := n - 1; i >= 0; i-- {
		jacLDouble(&acc)
		b1 := k1.Bit(i) == 1
		b2 := k2.Bit(i) == 1
		switch {
		case b1 && b2:
			jacLAddMixed(&acc, &p12)
		case b1:
			jacLAddMixed(&acc, &p1)
		case b2:
			jacLAddMixed(&acc, &p2)
		}
	}
	res := acc.affine()
	return &res
}

// genericScalarMul is the plain double-and-add ladder, kept as the GLV
// fallback and the baseline the GLV tests compare against. s must be
// reduced mod r.
func genericScalarMul(a *G1, s *big.Int) *G1 {
	var acc g1JacL
	if !a.Inf {
		for i := s.BitLen() - 1; i >= 0; i-- {
			jacLDouble(&acc)
			if s.Bit(i) == 1 {
				jacLAddMixed(&acc, a)
			}
		}
	}
	res := acc.affine()
	return &res
}
