package batch

import (
	"context"
	"math/big"

	"dragoon/internal/group"
	"dragoon/internal/parallel"
)

// MSM computes Σ scalars[i]·points[i] over any group backend: backends
// implementing the optional group.MultiScalarMuler extension (BN254 G1, via
// Jacobian-bucket Pippenger) run natively; everything else falls through to
// a generic interface-level Pippenger built on Add. nil points and nil
// scalars are skipped; scalars are reduced modulo the group order.
func MSM(g group.Group, points []group.Element, scalars []*big.Int) group.Element {
	if m, ok := g.(group.MultiScalarMuler); ok {
		return m.MultiScalarMul(points, scalars)
	}
	return genericMSM(g, points, scalars)
}

// genericMSMThreshold is the input size below which chunking overhead
// outweighs the parallel win.
const genericMSMThreshold = 32

// genericMSM chunks the input across the work pool and combines the partial
// sums in chunk order (group addition is associative, so the result equals
// the sequential sum).
func genericMSM(g group.Group, points []group.Element, scalars []*big.Int) group.Element {
	n := len(points)
	if len(scalars) < n {
		n = len(scalars)
	}
	workers := parallel.Workers(0)
	if n < genericMSMThreshold || workers <= 1 {
		return genericMSMChunk(g, points[:n], scalars[:n])
	}
	partials, _ := parallel.MapSpans(context.Background(), n, workers, func(start, end int) (group.Element, error) {
		return genericMSMChunk(g, points[start:end], scalars[start:end]), nil
	})
	acc := g.Identity()
	for _, p := range partials {
		acc = g.Add(acc, p)
	}
	return acc
}

// genericMSMChunk is the sequential windowed Pippenger core over the group
// interface (doubling is Add(a, a)).
func genericMSMChunk(g group.Group, points []group.Element, scalars []*big.Int) group.Element {
	order := g.Order()
	ps := make([]group.Element, 0, len(points))
	ss := make([]*big.Int, 0, len(points))
	maxBits := 0
	for i := range points {
		if points[i] == nil || scalars[i] == nil {
			continue
		}
		s := new(big.Int).Mod(scalars[i], order)
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
		return g.Identity()
	}
	window := 4
	switch {
	case len(ps) >= 4096:
		window = 9
	case len(ps) >= 512:
		window = 7
	case len(ps) >= 64:
		window = 5
	}
	numWindows := (maxBits + window - 1) / window
	acc := g.Identity()
	buckets := make([]group.Element, 1<<window)
	for w := numWindows - 1; w >= 0; w-- {
		for i := 0; i < window; i++ {
			acc = g.Add(acc, acc)
		}
		for b := range buckets {
			buckets[b] = nil
		}
		for i := range ps {
			idx := 0
			base := w * window
			for b := 0; b < window; b++ {
				if ss[i].Bit(base+b) == 1 {
					idx |= 1 << b
				}
			}
			if idx == 0 {
				continue
			}
			if buckets[idx] == nil {
				buckets[idx] = ps[i]
			} else {
				buckets[idx] = g.Add(buckets[idx], ps[i])
			}
		}
		sum := g.Identity()
		windowAcc := g.Identity()
		for b := (1 << window) - 1; b >= 1; b-- {
			if buckets[b] != nil {
				sum = g.Add(sum, buckets[b])
			}
			windowAcc = g.Add(windowAcc, sum)
		}
		acc = g.Add(acc, windowAcc)
	}
	return acc
}
