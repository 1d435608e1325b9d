package bn254

import (
	"math/big"
	"math/rand"
	"testing"
)

// naiveMSM is the reference Σ kᵢ·Pᵢ via per-point scalar multiplication.
func naiveMSM(points []*G1, scalars []*big.Int) *G1 {
	acc := G1Infinity()
	for i := range points {
		if points[i] == nil || scalars[i] == nil {
			continue
		}
		acc = acc.Add(points[i].ScalarMul(scalars[i]))
	}
	return acc
}

func randPoints(rng *rand.Rand, n int) ([]*G1, []*big.Int) {
	points := make([]*G1, n)
	scalars := make([]*big.Int, n)
	for i := range points {
		k := new(big.Int).Rand(rng, Order())
		points[i] = G1ScalarBaseMul(new(big.Int).Rand(rng, Order()))
		scalars[i] = k
	}
	return points, scalars
}

func TestMSMG1MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 7, 33, 100} {
		points, scalars := randPoints(rng, n)
		got := MSMG1(points, scalars)
		want := naiveMSM(points, scalars)
		if !got.Equal(want) {
			t.Errorf("MSMG1 mismatch at n=%d", n)
		}
	}
}

func TestMSMG1Degenerates(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	points, scalars := randPoints(rng, 8)
	points[1] = nil
	scalars[2] = nil
	points[3] = G1Infinity()
	scalars[4] = new(big.Int) // zero scalar
	scalars[5] = new(big.Int).Neg(big.NewInt(3))
	// Duplicate point: buckets must merge, not clobber.
	dup := *points[6]
	points[7] = &dup
	scalars[7] = new(big.Int).Set(scalars[6])
	got := MSMG1(points, scalars)
	want := naiveMSM(points, scalars)
	if !got.Equal(want) {
		t.Error("MSMG1 mismatch with degenerate inputs")
	}
}

// TestJacAdd checks G1.Add (a mixed Jacobian addition) and the limb general
// Jacobian addition (the MSM bucket and chunk combiner) against the oracle's
// affine group law, including their doubling, inverse and identity branches.
func TestJacAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := G1ScalarBaseMul(new(big.Int).Rand(rng, Order()))
	b := G1ScalarBaseMul(new(big.Int).Rand(rng, Order()))
	cases := []struct {
		name string
		x, y *G1
	}{
		{"distinct", a, b},
		{"same", a, a},
		{"inverse", a, a.Neg()},
		{"left-inf", G1Infinity(), b},
		{"right-inf", a, G1Infinity()},
	}
	for _, tc := range cases {
		want := oracleAdd(tc.x, tc.y)
		var x, y g1JacL
		x.setAffine(tc.x)
		y.setAffine(tc.y)
		jacLAdd(&x, &y)
		if got := x.affine(); !got.Equal(want) {
			t.Errorf("jacLAdd %s: got %v want %v", tc.name, &got, want)
		}
		if got := tc.x.Add(tc.y); !got.Equal(want) {
			t.Errorf("G1.Add %s: got %v want %v", tc.name, got, want)
		}
	}
}
