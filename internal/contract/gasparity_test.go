package contract_test

import (
	"math/big"
	"testing"

	"dragoon/internal/contract"
	"dragoon/internal/elgamal"
	"dragoon/internal/gas"
	"dragoon/internal/group"
	"dragoon/internal/vpke"
)

// scanCounter wraps a group and tallies operations at the metered decorator's
// price classes, to replay what an uncached in-contract ShortLog would have
// charged.
type scanCounter struct {
	group.Group
	adds, muls uint64
}

func (c *scanCounter) Add(a, b group.Element) group.Element {
	c.adds++
	return c.Group.Add(a, b)
}

func (c *scanCounter) Neg(a group.Element) group.Element {
	c.adds++
	return c.Group.Neg(a)
}

func (c *scanCounter) ScalarMul(a group.Element, k *big.Int) group.Element {
	c.muls++
	return c.Group.ScalarMul(a, k)
}

func (c *scanCounter) ScalarBaseMul(k *big.Int) group.Element {
	c.muls++
	return c.Group.ScalarBaseMul(k)
}

// outrangeReceiptGas runs one outrange flow and returns the receipt gas plus
// the revealed element and range size of the claim.
func outrangeReceiptGas(t *testing.T, inRange bool) (uint64, group.Element, int64) {
	t.Helper()
	h := newHarness(t, 1)
	answers := append([]int64{}, h.inst.GroundTruth...)
	qIdx := 0
	if !inRange {
		qIdx = 3
		answers[3] = 77 // outside {0,1,2}
	}
	rv := evaluateSetup(t, h, answers)
	h.mustOK(h.send(h.requester, contract.MethodGolden, h.goldenMsg().Marshal()))

	ct, err := elgamal.UnmarshalCiphertext(h.g, rv.Cts[qIdx])
	if err != nil {
		t.Fatal(err)
	}
	plain, pi, err := vpke.Prove(h.sk, ct, h.inst.Task.RangeSize, h.rnd)
	if err != nil {
		t.Fatal(err)
	}
	msg := &contract.OutrangeMsg{
		Worker:  "w1",
		QIdx:    qIdx,
		Ct:      rv.Cts[qIdx],
		Element: h.g.Marshal(plain.Element),
		Proof:   vpke.MarshalProof(h.g, pi),
	}
	r := h.send(h.requester, contract.MethodOutrange, msg.Marshal())
	h.mustOK(r)
	return r.GasUsed, plain.Element, h.inst.Task.RangeSize
}

// TestOutrangeGasMatchesUncachedScan: the outrange handler answers its
// range scan from the process-wide short-log table, but the gas it charges
// must be exactly what the previous inline metered ShortLog charged — and
// the table build itself must never appear in any receipt.
func TestOutrangeGasMatchesUncachedScan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		inRange bool
	}{
		{"in-range claim", true},
		{"out-of-range claim", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, element, rangeSize := outrangeReceiptGas(t, tc.inRange)

			// Replay the scan the old inline code performed, on a counting
			// wrapper charging the same ECADD/ECMUL price classes.
			sc := &scanCounter{Group: group.TestSchnorr()}
			_, scanInRange := elgamal.ShortLog(sc, element, rangeSize)
			if scanInRange != tc.inRange {
				t.Fatalf("scan verdict %v, want %v", scanInRange, tc.inRange)
			}
			uncachedScanGas := sc.adds*gas.EcAdd + sc.muls*gas.EcMul

			// And the cached path's own accounting.
			_, _, ops := elgamal.SharedShortLogTable(group.TestSchnorr(), rangeSize).LookupOps(element)
			cachedScanGas := ops.Adds*gas.EcAdd + ops.Muls*gas.EcMul
			if cachedScanGas != uncachedScanGas {
				t.Fatalf("cached scan charges %d gas, uncached scan charged %d",
					cachedScanGas, uncachedScanGas)
			}
			if got < cachedScanGas {
				t.Fatalf("receipt gas %d is below the scan gas %d it must include", got, cachedScanGas)
			}

			// Determinism across a fresh, identical run (the registry table
			// is warm now — a leaked build cost would show up here).
			again, _, _ := outrangeReceiptGas(t, tc.inRange)
			if again != got {
				t.Fatalf("identical outrange runs charged %d then %d gas", got, again)
			}
		})
	}
}
