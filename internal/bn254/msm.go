package bn254

import (
	"context"
	"math/big"

	"dragoon/internal/parallel"
)

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

// msmBucketIndex returns window w of s, width bits wide: bits
// w·width … w·width+width−1 as a little-endian integer (the bucket or
// table digit for that window).
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
	var acc g1JacL
	if n < msmParallelThreshold || workers <= 1 {
		acc = msmG1Chunk(points[:n], scalars[:n])
	} else {
		partials, _ := parallel.MapSpans(context.Background(), n, workers, func(start, end int) (g1JacL, error) {
			return msmG1Chunk(points[start:end], scalars[start:end]), nil
		})
		for i := range partials {
			jacLAdd(&acc, &partials[i])
		}
	}
	sum := acc.affine()
	return &sum
}

// msmG1Chunk is the sequential Jacobian Pippenger core.
func msmG1Chunk(points []*G1, scalars []*big.Int) g1JacL {
	r := params().R

	// Reduce scalars and drop nil/identity entries up front.
	pts := make([]*G1, 0, len(points))
	ss := make([]*big.Int, 0, len(points))
	maxBits := 0
	for i := range points {
		if points[i] == nil || points[i].Inf || scalars[i] == nil {
			continue
		}
		s := new(big.Int).Mod(scalars[i], r)
		if s.Sign() == 0 {
			continue
		}
		if b := s.BitLen(); b > maxBits {
			maxBits = b
		}
		pts = append(pts, points[i])
		ss = append(ss, s)
	}
	var acc g1JacL
	if len(pts) == 0 {
		return acc
	}
	window := msmWindow(len(pts))
	numWindows := (maxBits + window - 1) / window
	buckets := make([]g1JacL, 1<<window)
	used := make([]bool, 1<<window)
	for w := numWindows - 1; w >= 0; w-- {
		for i := 0; i < window; i++ {
			jacLDouble(&acc)
		}
		for b := range used {
			used[b] = false
		}
		for i := range pts {
			idx := msmBucketIndex(ss[i], w, window)
			if idx == 0 {
				continue
			}
			if !used[idx] {
				buckets[idx].setAffine(pts[i])
				used[idx] = true
			} else {
				jacLAddMixed(&buckets[idx], pts[i])
			}
		}
		// Running-sum bucket aggregation.
		var sum, windowAcc g1JacL
		for b := (1 << window) - 1; b >= 1; b-- {
			if used[b] {
				jacLAdd(&sum, &buckets[b])
			}
			jacLAdd(&windowAcc, &sum)
		}
		jacLAdd(&acc, &windowAcc)
	}
	return acc
}
