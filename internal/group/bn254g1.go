package group

import (
	"fmt"
	"math/big"

	"dragoon/internal/bn254"
)

// bn254G1 is the production group backend: the G1 subgroup of BN254.
type bn254G1 struct{}

// BN254G1 returns the BN254 G1 group backend used by the deployed system.
func BN254G1() Group { return bn254G1{} }

// g1Elem wraps a bn254 point as a group Element.
type g1Elem struct {
	pt *bn254.G1
}

func (e g1Elem) String() string { return e.pt.String() }

var _ Group = bn254G1{}

func (bn254G1) Name() string { return "bn254-g1" }

func (bn254G1) Order() *big.Int { return bn254.Order() }

func (bn254G1) Generator() Element { return g1Elem{pt: bn254.G1Generator()} }

func (bn254G1) Identity() Element { return g1Elem{pt: bn254.G1Infinity()} }

func asG1(a Element) g1Elem {
	e, ok := a.(g1Elem)
	if !ok {
		panic(ErrWrongGroup)
	}
	return e
}

func (bn254G1) Add(a, b Element) Element {
	return g1Elem{pt: asG1(a).pt.Add(asG1(b).pt)}
}

func (bn254G1) Neg(a Element) Element { return g1Elem{pt: asG1(a).pt.Neg()} }

func (bn254G1) ScalarMul(a Element, k *big.Int) Element {
	return g1Elem{pt: asG1(a).pt.ScalarMul(k)}
}

func (bn254G1) ScalarBaseMul(k *big.Int) Element {
	return g1Elem{pt: bn254.G1ScalarBaseMul(k)}
}

// MultiScalarMul implements the optional MultiScalarMuler extension with the
// curve's Jacobian-bucket Pippenger (one field inversion per sum).
func (bn254G1) MultiScalarMul(points []Element, scalars []*big.Int) Element {
	pts := make([]*bn254.G1, len(points))
	for i, e := range points {
		if e == nil {
			continue
		}
		pts[i] = asG1(e).pt
	}
	return g1Elem{pt: bn254.MSMG1(pts, scalars)}
}

// ScalarMulManyAdd implements the optional ScalarMulManyAdder extension
// with the curve's GLV span kernel (bn254.G1ScalarMulManyAdd): one field
// inversion for the span's odd-multiple tables and one for its results,
// with a table shared by consecutive entries over the same point and a
// recoding by consecutive entries with the same scalar.
func (bn254G1) ScalarMulManyAdd(points []Element, ks []*big.Int, addends []Element) []Element {
	pts := make([]*bn254.G1, len(points))
	for i, e := range points {
		pts[i] = asG1(e).pt
	}
	adds := make([]*bn254.G1, len(points))
	for i := range adds {
		if i < len(addends) && addends[i] != nil {
			adds[i] = asG1(addends[i]).pt
		}
	}
	res := bn254.G1ScalarMulManyAdd(pts, ks, adds)
	out := make([]Element, len(res))
	for i := range res {
		out[i] = g1Elem{pt: &res[i]}
	}
	return out
}

var _ ScalarMulManyAdder = bn254G1{}

func (bn254G1) Equal(a, b Element) bool { return asG1(a).pt.Equal(asG1(b).pt) }

func (bn254G1) IsIdentity(a Element) bool { return asG1(a).pt.IsInfinity() }

func (bn254G1) Marshal(a Element) []byte { return asG1(a).pt.Marshal() }

func (bn254G1) Unmarshal(data []byte) (Element, error) {
	pt, err := bn254.UnmarshalG1(data)
	if err != nil {
		return nil, fmt.Errorf("group: decoding bn254 G1 element: %w", err)
	}
	return g1Elem{pt: pt}, nil
}

func (bn254G1) ElementLen() int { return 64 }
