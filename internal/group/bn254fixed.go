package group

import (
	"math/big"

	"dragoon/internal/bn254"
)

// bn254FixedBase adapts a curve-level window table to the FixedBase handle.
type bn254FixedBase struct {
	t *bn254.FixedBaseTable
}

// PrecomputeFixedBase implements the FixedBaser extension with a width-w
// window table (bn254.FixedBaseWindowBits): multiplications against the
// base cost only mixed additions, and the batch variants share one field
// inversion per call.
func (bn254G1) PrecomputeFixedBase(base Element) FixedBase {
	return bn254FixedBase{t: bn254.NewFixedBaseTable(asG1(base).pt)}
}

var _ FixedBaser = bn254G1{}

func (f bn254FixedBase) Mul(k *big.Int) Element {
	return g1Elem{pt: f.t.Mul(k)}
}

func (f bn254FixedBase) MulMany(ks []*big.Int) []Element {
	pts := f.t.MulMany(ks)
	out := make([]Element, len(pts))
	for i, pt := range pts {
		if pt != nil {
			out[i] = g1Elem{pt: pt}
		}
	}
	return out
}

func (f bn254FixedBase) MulManyAdd(ks []*big.Int, addends []Element) []Element {
	adds := make([]*bn254.G1, len(ks))
	for i := range adds {
		if i < len(addends) && addends[i] != nil {
			adds[i] = asG1(addends[i]).pt
		}
	}
	pts := f.t.MulManyAdd(ks, adds)
	out := make([]Element, len(pts))
	for i, pt := range pts {
		out[i] = g1Elem{pt: pt}
	}
	return out
}
