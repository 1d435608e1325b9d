// Package groth16 implements the Groth16 zk-SNARK over BN254: trusted
// setup, prover, and verifier. It is the "generic ZKP" baseline that the
// Dragoon paper measures its special-purpose PoQoEA against (Tables I and
// II): the prover pays for the NP reduction (multi-scalar multiplications
// of size proportional to the circuit), while the verifier pays a
// pairing-product check — exactly the cost profile the paper attributes to
// generic zk-proofs on Ethereum ("verifying a SNARK proof costs ... about
// half US dollar" pre-EIP-1108, ~181k gas after).
package groth16

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"

	"dragoon/internal/bn254"
	"dragoon/internal/ff"
	"dragoon/internal/parallel"
	"dragoon/internal/qap"
	"dragoon/internal/r1cs"
)

// ProvingKey is the prover's half of the CRS.
type ProvingKey struct {
	Alpha1, Beta1, Delta1 *bn254.G1
	Beta2, Delta2         *bn254.G2

	// A1[i] = u_i(τ)·G1, B1[i] = v_i(τ)·G1, B2[i] = v_i(τ)·G2.
	A1 []*bn254.G1
	B1 []*bn254.G1
	B2 []*bn254.G2
	// K1[i] = ((β·u_i(τ) + α·v_i(τ) + w_i(τ))/δ)·G1 for private wires
	// (indexed from NumPublic+1; nil entries for public wires).
	K1 []*bn254.G1
	// Z1[i] = (τ^i·Z(τ)/δ)·G1 for i ≤ N−2.
	Z1 []*bn254.G1
}

// VerifyingKey is the verifier's half of the CRS.
type VerifyingKey struct {
	Alpha1 *bn254.G1
	Beta2  *bn254.G2
	Gamma2 *bn254.G2
	Delta2 *bn254.G2
	// IC[i] = ((β·u_i(τ) + α·v_i(τ) + w_i(τ))/γ)·G1 for the constant wire
	// and each public input.
	IC []*bn254.G1
}

// Proof is a Groth16 proof: two G1 points and one G2 point (128+64 bytes
// marshaled — the paper's "succinct in proof size").
type Proof struct {
	A *bn254.G1
	B *bn254.G2
	C *bn254.G1
}

// Marshal encodes the proof (A ‖ B ‖ C).
func (p *Proof) Marshal() []byte {
	out := make([]byte, 0, 256)
	out = append(out, p.A.Marshal()...)
	out = append(out, p.B.Marshal()...)
	return append(out, p.C.Marshal()...)
}

// UnmarshalProof decodes a proof produced by Marshal.
func UnmarshalProof(data []byte) (*Proof, error) {
	if len(data) != 256 {
		return nil, fmt.Errorf("groth16: bad proof length %d", len(data))
	}
	a, err := bn254.UnmarshalG1(data[:64])
	if err != nil {
		return nil, fmt.Errorf("groth16: proof.A: %w", err)
	}
	b, err := bn254.UnmarshalG2(data[64:192])
	if err != nil {
		return nil, fmt.Errorf("groth16: proof.B: %w", err)
	}
	c, err := bn254.UnmarshalG1(data[192:])
	if err != nil {
		return nil, fmt.Errorf("groth16: proof.C: %w", err)
	}
	return &Proof{A: a, B: b, C: c}, nil
}

// Setup runs the trusted setup for a constraint system, sampling the toxic
// waste (α, β, γ, δ, τ) from rnd (crypto/rand if nil).
func Setup(cs *r1cs.System, rnd io.Reader) (*ProvingKey, *VerifyingKey, error) {
	q, err := qap.New(cs)
	if err != nil {
		return nil, nil, err
	}
	f := cs.Field()
	sample := func() (*big.Int, error) {
		for {
			v, err := f.Rand(rnd)
			if err != nil {
				return nil, err
			}
			if v.Sign() != 0 {
				return v, nil
			}
		}
	}
	var alpha, beta, gamma, delta, tau *big.Int
	for _, dst := range []**big.Int{&alpha, &beta, &gamma, &delta, &tau} {
		v, err := sample()
		if err != nil {
			return nil, nil, fmt.Errorf("groth16: setup sampling: %w", err)
		}
		*dst = v
	}

	ev, err := q.EvalAtTau(tau)
	if err != nil {
		return nil, nil, err
	}

	m := cs.NumVariables()
	nPub := cs.NumPublic()
	gammaInv := f.Inv(gamma)
	deltaInv := f.Inv(delta)

	pk := &ProvingKey{
		Alpha1: bn254.G1ScalarBaseMul(alpha),
		Beta1:  bn254.G1ScalarBaseMul(beta),
		Delta1: bn254.G1ScalarBaseMul(delta),
		Beta2:  bn254.G2ScalarBaseMul(beta),
		Delta2: bn254.G2ScalarBaseMul(delta),
		A1:     make([]*bn254.G1, m),
		B1:     make([]*bn254.G1, m),
		B2:     make([]*bn254.G2, m),
		K1:     make([]*bn254.G1, m),
	}
	vk := &VerifyingKey{
		Alpha1: pk.Alpha1,
		Beta2:  pk.Beta2,
		Gamma2: bn254.G2ScalarBaseMul(gamma),
		Delta2: pk.Delta2,
		IC:     make([]*bn254.G1, nPub+1),
	}
	// All per-wire generator multiplications go through the generator's
	// fixed-base table as one batch (a single field inversion for the whole
	// G1 side of the key material).
	ks := make([]*big.Int, m)
	for i := 0; i < m; i++ {
		// k_i = β·u_i + α·v_i + w_i.
		k := f.Add(f.Add(f.Mul(beta, ev.U[i]), f.Mul(alpha, ev.V[i])), ev.W[i])
		if i <= nPub {
			ks[i] = f.Mul(k, gammaInv)
		} else {
			ks[i] = f.Mul(k, deltaInv)
		}
		pk.B2[i] = bn254.G2ScalarBaseMul(ev.V[i])
	}
	gt := bn254.G1GeneratorTable()
	copy(pk.A1, gt.MulMany(ev.U[:m]))
	copy(pk.B1, gt.MulMany(ev.V[:m]))
	for i, pt := range gt.MulMany(ks) {
		if i <= nPub {
			vk.IC[i] = pt
		} else {
			pk.K1[i] = pt
		}
	}
	// Powers τ^i·Z(τ)/δ.
	n := q.Domain.N
	powers := make([]*big.Int, n-1)
	zOverDelta := f.Mul(ev.ZTau, deltaInv)
	power := new(big.Int).Set(zOverDelta)
	for i := 0; i < n-1; i++ {
		powers[i] = power
		power = f.Mul(power, tau)
	}
	pk.Z1 = gt.MulMany(powers)
	return pk, vk, nil
}

// Prove produces a proof for a satisfying witness.
func Prove(cs *r1cs.System, pk *ProvingKey, witness r1cs.Witness, rnd io.Reader) (*Proof, error) {
	if err := cs.Satisfied(witness); err != nil {
		return nil, fmt.Errorf("groth16: %w", err)
	}
	q, err := qap.New(cs)
	if err != nil {
		return nil, err
	}
	f := cs.Field()
	h, err := q.QuotientCoeffs(witness)
	if err != nil {
		return nil, err
	}
	r, err := f.Rand(rnd)
	if err != nil {
		return nil, fmt.Errorf("groth16: sampling r: %w", err)
	}
	s, err := f.Rand(rnd)
	if err != nil {
		return nil, fmt.Errorf("groth16: sampling s: %w", err)
	}

	// The five per-wire MSMs (A, the two B halves, and C's private-wire and
	// quotient parts) are mutually independent, so they run as one fork/join
	// on top of the chunk-parallel MSM itself.
	nPub := cs.NumPublic()
	privPoints := pk.K1[nPub+1:]
	privScalars := witness[nPub+1:]
	var a, b1, c *bn254.G1
	var b2 *bn254.G2
	var cz *bn254.G1
	_ = parallel.Do(
		func() error {
			// A = α + Σ z_i·u_i(τ) + r·δ  (in G1).
			a = pk.Alpha1.Add(MSMG1(pk.A1, witness)).Add(pk.Delta1.ScalarMul(r))
			return nil
		},
		func() error {
			// B = β + Σ z_i·v_i(τ) + s·δ  (in G2, plus a G1 copy for C).
			b2 = pk.Beta2.Add(MSMG2(pk.B2, witness)).Add(pk.Delta2.ScalarMul(s))
			return nil
		},
		func() error {
			b1 = pk.Beta1.Add(MSMG1(pk.B1, witness)).Add(pk.Delta1.ScalarMul(s))
			return nil
		},
		func() error {
			// C = Σ_priv z_i·k_i/δ + h(τ)·Z(τ)/δ + s·A + r·B1 − r·s·δ.
			c = MSMG1(privPoints, privScalars)
			return nil
		},
		func() error {
			cz = MSMG1(pk.Z1[:len(h)], h)
			return nil
		},
	)
	c = c.Add(cz)
	c = c.Add(a.ScalarMul(s))
	c = c.Add(b1.ScalarMul(r))
	rs := f.Mul(r, s)
	c = c.Add(pk.Delta1.ScalarMul(rs).Neg())

	return &Proof{A: a, B: b2, C: c}, nil
}

// Verify checks a proof against the public inputs:
// e(A,B) = e(α,β)·e(Σ aᵢ·ICᵢ, γ)·e(C, δ), rearranged into a single
// 4-pair product check (the EVM's pairing precompile call shape).
func Verify(vk *VerifyingKey, publicInputs []*big.Int, proof *Proof) (bool, error) {
	if len(publicInputs) != len(vk.IC)-1 {
		return false, fmt.Errorf("groth16: %d public inputs, want %d", len(publicInputs), len(vk.IC)-1)
	}
	if proof == nil || proof.A == nil || proof.B == nil || proof.C == nil {
		return false, errors.New("groth16: incomplete proof")
	}
	acc := vk.IC[0]
	for i, x := range publicInputs {
		acc = acc.Add(vk.IC[i+1].ScalarMul(x))
	}
	// e(A,B)·e(−α,β)·e(−acc,γ)·e(−C,δ) = 1.
	ok := bn254.PairingCheck(
		[]*bn254.G1{proof.A, vk.Alpha1.Neg(), acc.Neg(), proof.C.Neg()},
		[]*bn254.G2{proof.B, vk.Beta2, vk.Gamma2, vk.Delta2},
	)
	return ok, nil
}

// curvePoint abstracts G1/G2 for the shared Pippenger MSM.
type curvePoint[P any] interface {
	Add(P) P
	Double() P
	IsInfinity() bool
}

// msmParallelThreshold is the input size below which the chunking overhead
// of a parallel multi-scalar multiplication outweighs the win.
const msmParallelThreshold = 32

// msm is a multi-scalar multiplication: below msmParallelThreshold it runs
// the windowed Pippenger core directly; above it the input is split into one
// contiguous chunk per pool worker, the chunks run concurrently, and the
// partial sums are combined in chunk order. Group addition is associative,
// so the combined point is exactly the sequential result.
func msm[P curvePoint[P]](identity P, points []P, scalars []*big.Int, order *big.Int) P {
	n := len(points)
	workers := parallel.Workers(0)
	if n < msmParallelThreshold || workers <= 1 {
		return msmChunk(identity, points, scalars, order)
	}
	partials, _ := parallel.MapSpans(context.Background(), n, workers, func(start, end int) (P, error) {
		return msmChunk(identity, points[start:end], scalars[start:end], order), nil
	})
	acc := identity
	for _, p := range partials {
		acc = acc.Add(p)
	}
	return acc
}

// msmChunk is the sequential windowed Pippenger core.
func msmChunk[P curvePoint[P]](identity P, points []P, scalars []*big.Int, order *big.Int) P {
	n := len(points)
	if n == 0 {
		return identity
	}
	// Window size by problem size.
	window := 4
	switch {
	case n >= 4096:
		window = 9
	case n >= 512:
		window = 7
	case n >= 64:
		window = 5
	}
	reduced := make([]*big.Int, n)
	maxBits := 0
	for i, s := range scalars {
		reduced[i] = new(big.Int).Mod(s, order)
		if b := reduced[i].BitLen(); b > maxBits {
			maxBits = b
		}
	}
	if maxBits == 0 {
		return identity
	}
	numWindows := (maxBits + window - 1) / window
	acc := identity
	for w := numWindows - 1; w >= 0; w-- {
		for i := 0; i < window; i++ {
			acc = acc.Double()
		}
		buckets := make([]P, 1<<window)
		used := make([]bool, 1<<window)
		for i := 0; i < n; i++ {
			idx := bucketIndex(reduced[i], w, window)
			if idx == 0 {
				continue
			}
			if !used[idx] {
				buckets[idx] = points[i]
				used[idx] = true
			} else {
				buckets[idx] = buckets[idx].Add(points[i])
			}
		}
		// Running-sum bucket aggregation.
		sum := identity
		windowAcc := identity
		for b := (1 << window) - 1; b >= 1; b-- {
			if used[b] {
				sum = sum.Add(buckets[b])
			}
			windowAcc = windowAcc.Add(sum)
		}
		acc = acc.Add(windowAcc)
	}
	return acc
}

// bucketIndex extracts window w (of the given width) from the scalar.
func bucketIndex(s *big.Int, w, width int) int {
	idx := 0
	base := w * width
	for b := 0; b < width; b++ {
		if s.Bit(base+b) == 1 {
			idx |= 1 << b
		}
	}
	return idx
}

// MSMG1 computes Σ scalars[i]·points[i] over G1 (nil points and scalars are
// skipped). It delegates to the curve's native Jacobian-bucket Pippenger
// (bn254.MSMG1), which pays one field inversion per sum rather than one per
// point addition — the dominant cost of the affine generic path.
func MSMG1(points []*bn254.G1, scalars []*big.Int) *bn254.G1 {
	return bn254.MSMG1(points, scalars)
}

// MSMG2 computes Σ scalars[i]·points[i] over G2 (nil points are skipped).
func MSMG2(points []*bn254.G2, scalars []*big.Int) *bn254.G2 {
	ps, ss := filterNil(points, scalars)
	return msm[*bn254.G2](bn254.G2Infinity(), ps, ss, bn254.Order())
}

func filterNil[P comparable](points []P, scalars []*big.Int) ([]P, []*big.Int) {
	var zero P
	ps := make([]P, 0, len(points))
	ss := make([]*big.Int, 0, len(points))
	for i := range points {
		if points[i] == zero || i >= len(scalars) || scalars[i] == nil {
			continue
		}
		ps = append(ps, points[i])
		ss = append(ss, scalars[i])
	}
	return ps, ss
}

// FieldOf returns the scalar field shared by all circuits over BN254.
func FieldOf() *ff.Field { return ff.New(bn254.Order()) }
