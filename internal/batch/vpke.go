package batch

import (
	"fmt"
	"math/big"

	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/keccak"
	"dragoon/internal/vpke"
)

// VPKEStatement is one verifiable-decryption claim: "ciphertext Ct,
// encrypted to public key H, decrypts to the plaintext lift Gm", attested by
// Proof. Statements carry their own H so one fold can span proofs addressed
// to different requesters (the marketplace round auditor mixes tasks;
// the §VI shared-key deployment makes them coincide).
type VPKEStatement struct {
	// H is the verifier public key h = g^k the ciphertext was encrypted to.
	H group.Element
	// Gm is the claimed plaintext as a group element g^m.
	Gm group.Element
	// Ct is the ciphertext (c1, c2) the claim is about.
	Ct elgamal.Ciphertext
	// Proof is the Schnorr-style decryption proof (A, B, Z).
	Proof *vpke.Proof
}

// wellFormed reports the structural validity the per-proof verifier
// (vpke.VerifyElement) enforces before its equations.
func (s *VPKEStatement) wellFormed(g group.Group) bool {
	return s.H != nil && s.Gm != nil && s.Ct.C1 != nil && s.Ct.C2 != nil &&
		vpke.ValidShape(g, s.Proof)
}

// exact runs the per-proof verifier on one statement.
func (s *VPKEStatement) exact(g group.Group) bool {
	pk := &elgamal.PublicKey{Group: g, H: s.H}
	return vpke.VerifyElement(pk, s.Gm, s.Ct, s.Proof)
}

// transcript folds the statement's public values into a keccak digest (one
// leaf of the fold-exponent seed).
func (s *VPKEStatement) transcript(g group.Group) [32]byte {
	return keccak.Sum256Concat(
		g.Marshal(s.H), g.Marshal(s.Gm),
		g.Marshal(s.Ct.C1), g.Marshal(s.Ct.C2),
		g.Marshal(s.Proof.A), g.Marshal(s.Proof.B), s.Proof.Z.Bytes(),
	)
}

// vpkeFold carries the shared state of one batched VPKE verification.
type vpkeFold struct {
	g    group.Group
	sts  []VPKEStatement
	chal []*big.Int // Fiat–Shamir challenge per statement
	seed []byte     // transcript hash seeding the fold exponents
	fold int        // fold counter, so every (re-)fold draws fresh exponents
}

// VerifyVPKE verifies many VPKE statements at once. The two verification
// equations of every well-formed statement are folded — with independent
// random exponents uᵢ, vᵢ — into a single multi-scalar multiplication
//
//	Σᵢ uᵢ·(Cᵢ·Gmᵢ + Zᵢ·c1ᵢ − Aᵢ − Cᵢ·c2ᵢ) + vᵢ·(Zᵢ·g − Bᵢ − Cᵢ·hᵢ) = 0
//
// of 6·n+1 points, so the per-statement cost is a handful of point
// additions instead of six full scalar multiplications. It returns whether
// every statement verifies, plus the exact indices of the failing ones:
// structurally malformed statements are flagged without entering the fold,
// and a failed fold is bisected down to per-proof verification, so the
// verdict per statement matches vpke.VerifyElement (up to the 2⁻¹²⁸ RLC
// soundness slack documented on the package).
func VerifyVPKE(g group.Group, sts []VPKEStatement) (bool, []int) {
	var bad []int
	var valid []int
	for i := range sts {
		if !sts[i].wellFormed(g) {
			bad = append(bad, i)
			continue
		}
		valid = append(valid, i)
	}
	switch len(valid) {
	case 0:
		return len(bad) == 0, bad
	case 1:
		// One real statement: the exact check is cheaper than a fold.
		if !sts[valid[0]].exact(g) {
			bad = InsertSorted(bad, valid[0])
		}
		return len(bad) == 0, bad
	}

	f := &vpkeFold{g: g, sts: sts, chal: make([]*big.Int, len(sts))}
	transcript := make([]byte, 0, 32*(len(valid)+1))
	for _, i := range valid {
		st := &sts[i]
		f.chal[i] = vpke.ChallengeFor(g, st.H, st.Gm, st.Ct, st.Proof)
		t := st.transcript(g)
		transcript = append(transcript, t[:]...)
	}
	seed := keccak.Sum256(transcript)
	f.seed = seed[:]

	if !f.check(valid) {
		f.bisect(valid, &bad)
	}
	return len(bad) == 0, bad
}

// check folds the given statements with fresh transcript-derived exponents
// (us for equation 1, vs for equation 2) and reports whether the
// combination vanishes.
func (f *vpkeFold) check(idxs []int) bool {
	f.fold++
	g := f.g
	order := g.Order()
	coeffs := Coefficients(f.seed, fmt.Sprintf("vpke-fold-%d", f.fold), 2*len(idxs), order)
	us, vs := coeffs[:len(idxs)], coeffs[len(idxs):]
	points := make([]group.Element, 0, 6*len(idxs)+1)
	scalars := make([]*big.Int, 0, 6*len(idxs)+1)
	gScalar := new(big.Int) // Σ vᵢ·Zᵢ on the shared generator
	for k, i := range idxs {
		st := &f.sts[i]
		u, v := us[k], vs[k]
		c := f.chal[i]
		uc := new(big.Int).Mul(u, c)
		uc.Mod(uc, order)
		uz := new(big.Int).Mul(u, st.Proof.Z)
		uz.Mod(uz, order)
		vc := new(big.Int).Mul(v, c)
		vc.Mod(vc, order)
		vz := new(big.Int).Mul(v, st.Proof.Z)
		gScalar.Add(gScalar, vz)

		// Equation 1: C·Gm + Z·c1 − A − C·c2, weighted by u.
		points = append(points, st.Gm, st.Ct.C1, st.Proof.A, st.Ct.C2)
		scalars = append(scalars, uc, uz, neg(u, order), neg(uc, order))
		// Equation 2: Z·g − B − C·h, weighted by v (the g term accumulates
		// into the shared generator scalar).
		points = append(points, st.Proof.B, st.H)
		scalars = append(scalars, neg(v, order), neg(vc, order))
	}
	points = append(points, g.Generator())
	scalars = append(scalars, gScalar.Mod(gScalar, order))
	return g.IsIdentity(MSM(g, points, scalars))
}

// bisect recursively narrows a failed fold down to the exact offending
// statement indices, appending them to bad in sorted order.
func (f *vpkeFold) bisect(idxs []int, bad *[]int) {
	if len(idxs) == 1 {
		if !f.sts[idxs[0]].exact(f.g) {
			*bad = InsertSorted(*bad, idxs[0])
		}
		return
	}
	mid := len(idxs) / 2
	for _, half := range [][]int{idxs[:mid], idxs[mid:]} {
		if len(half) > 1 && f.check(half) {
			continue
		}
		f.bisect(half, bad)
	}
}

// neg returns −x mod order.
func neg(x, order *big.Int) *big.Int {
	n := new(big.Int).Neg(x)
	return n.Mod(n, order)
}

// InsertSorted inserts v into a sorted index slice, keeping it sorted — the
// bisection helpers of every fold share it.
func InsertSorted(s []int, v int) []int {
	i := len(s)
	for i > 0 && s[i-1] > v {
		i--
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
