package bn254

import (
	"context"
	"math/big"

	"dragoon/internal/limb"
	"dragoon/internal/parallel"
)

// jacAdd adds two Jacobian points (general addition; handles doubling and
// inverse pairs).
func jacAdd(a, b g1Jac, p *big.Int) g1Jac {
	if a.Z.Sign() == 0 {
		return b
	}
	if b.Z.Sign() == 0 {
		return a
	}
	z1z1 := fpMul(a.Z, a.Z, p)
	z2z2 := fpMul(b.Z, b.Z, p)
	u1 := fpMul(a.X, z2z2, p)
	u2 := fpMul(b.X, z1z1, p)
	s1 := fpMul(fpMul(a.Y, b.Z, p), z2z2, p)
	s2 := fpMul(fpMul(b.Y, a.Z, p), z1z1, p)
	if u1.Cmp(u2) == 0 {
		if s1.Cmp(s2) == 0 {
			return jacDouble(a, p)
		}
		return g1Jac{X: big.NewInt(1), Y: big.NewInt(1), Z: new(big.Int)}
	}
	h := fpSub(u2, u1, p)
	h2 := fpMul(h, h, p)
	h3 := fpMul(h, h2, p)
	v := fpMul(u1, h2, p)
	r := fpSub(s2, s1, p)
	x3 := fpSub(fpSub(fpMul(r, r, p), h3, p), fpAdd(v, v, p), p)
	y3 := fpSub(fpMul(r, fpSub(v, x3, p), p), fpMul(s1, h3, p), p)
	z3 := fpMul(fpMul(a.Z, b.Z, p), h, p)
	return g1Jac{X: x3, Y: y3, Z: z3}
}

// msmWindow picks the Pippenger window width for an input size.
func msmWindow(n int) int {
	switch {
	case n >= 4096:
		return 9
	case n >= 512:
		return 7
	case n >= 64:
		return 5
	case n >= 8:
		return 4
	default:
		return 2
	}
}

// msmScalarBit extracts bit (base+b) of s (helper for window slicing).
func msmBucketIndex(s *big.Int, w, width int) int {
	idx := 0
	base := w * width
	for b := 0; b < width; b++ {
		if s.Bit(base+b) == 1 {
			idx |= 1 << b
		}
	}
	return idx
}

// msmParallelThreshold is the input size below which chunking overhead
// outweighs the parallel win.
const msmParallelThreshold = 32

// MSMG1 computes Σ scalars[i]·points[i] over G1 with a windowed Pippenger
// algorithm whose buckets accumulate in Jacobian coordinates — one field
// inversion for the whole sum instead of one per point addition, which is
// what makes folded (batch) verification equations and the prover's per-wire
// sums cheap. nil points and nil scalars are skipped; scalars are reduced
// modulo the group order. Above msmParallelThreshold the input is split into
// one contiguous chunk per pool worker; chunk sums are combined in chunk
// order, so the result is exactly the sequential one.
func MSMG1(points []*G1, scalars []*big.Int) *G1 {
	n := len(points)
	if len(scalars) < n {
		n = len(scalars)
	}
	workers := parallel.Workers(0)
	if n < msmParallelThreshold || workers <= 1 {
		return msmG1Chunk(points[:n], scalars[:n]).affine()
	}
	partials, _ := parallel.MapSpans(context.Background(), n, workers, func(start, end int) (g1Jac, error) {
		return msmG1Chunk(points[start:end], scalars[start:end]), nil
	})
	p := params().P
	acc := g1Jac{X: big.NewInt(1), Y: big.NewInt(1), Z: new(big.Int)}
	for _, part := range partials {
		acc = jacAdd(acc, part, p)
	}
	return acc.affine()
}

// msmG1Chunk is the sequential Jacobian Pippenger core.
func msmG1Chunk(points []*G1, scalars []*big.Int) g1Jac {
	cp := params()
	p := cp.P
	inf := func() g1Jac { return g1Jac{X: big.NewInt(1), Y: big.NewInt(1), Z: new(big.Int)} }

	// Reduce scalars and drop nil/identity entries up front.
	ps := make([]*G1, 0, len(points))
	ss := make([]*big.Int, 0, len(points))
	maxBits := 0
	for i := range points {
		if points[i] == nil || points[i].Inf || scalars[i] == nil {
			continue
		}
		s := new(big.Int).Mod(scalars[i], cp.R)
		if s.Sign() == 0 {
			continue
		}
		if b := s.BitLen(); b > maxBits {
			maxBits = b
		}
		ps = append(ps, points[i])
		ss = append(ss, s)
	}
	if len(ps) == 0 {
		return inf()
	}
	if limb.Enabled() {
		chunk := msmG1ChunkL(ps, ss, maxBits)
		return chunk.jacBig()
	}
	window := msmWindow(len(ps))
	numWindows := (maxBits + window - 1) / window
	acc := inf()
	buckets := make([]g1Jac, 1<<window)
	used := make([]bool, 1<<window)
	for w := numWindows - 1; w >= 0; w-- {
		for i := 0; i < window; i++ {
			acc = jacDouble(acc, p)
		}
		for b := range used {
			used[b] = false
		}
		for i := range ps {
			idx := msmBucketIndex(ss[i], w, window)
			if idx == 0 {
				continue
			}
			if !used[idx] {
				buckets[idx] = ps[i].jacobian()
				used[idx] = true
			} else {
				buckets[idx] = jacAddMixed(buckets[idx], ps[i], p)
			}
		}
		// Running-sum bucket aggregation.
		sum := inf()
		windowAcc := inf()
		for b := (1 << window) - 1; b >= 1; b-- {
			if used[b] {
				sum = jacAdd(sum, buckets[b], p)
			}
			windowAcc = jacAdd(windowAcc, sum, p)
		}
		acc = jacAdd(acc, windowAcc, p)
	}
	return acc
}
