package benchwork

import (
	"math/big"

	"dragoon/internal/drbg"
	"dragoon/internal/gadget"
	"dragoon/internal/groth16"
	"dragoon/internal/r1cs"
)

// Circuit is a Groth16 baseline circuit, the paper's generic-ZKP route,
// with an assigned witness. Setup fills in its keys and Prove one proof.
type Circuit struct {
	CS      *r1cs.System
	Witness r1cs.Witness
	Public  []*big.Int
	PK      *groth16.ProvingKey
	VK      *groth16.VerifyingKey
	Proof   *groth16.Proof
}

// VPKECircuit is the stand-in for one in-circuit decryption, with steps
// chain steps; its constraint count grows linearly in steps.
func VPKECircuit(steps int) (*Circuit, error) {
	cs := r1cs.NewSystem(groth16.FieldOf())
	c, err := gadget.BuildVPKE(cs, steps)
	if err != nil {
		return nil, err
	}
	w := cs.NewWitness()
	c.AssignVPKE(w, big.NewInt(123456789), big.NewInt(1), steps)
	return &Circuit{CS: cs, Witness: w, Public: cs.PublicInputs(w)}, nil
}

// PoQoEACircuit is the generic quality circuit over six golden standards,
// each decryption with steps chain steps; half of the answers match.
func PoQoEACircuit(steps int) (*Circuit, error) {
	const numGolden = 6
	cs := r1cs.NewSystem(groth16.FieldOf())
	c, err := gadget.BuildPoQoEA(cs, numGolden, steps)
	if err != nil {
		return nil, err
	}
	golden := make([]*big.Int, numGolden)
	answers := make([]*big.Int, numGolden)
	for i := range golden {
		golden[i] = big.NewInt(1)
		answers[i] = big.NewInt(int64(i % 2))
	}
	w := cs.NewWitness()
	c.AssignPoQoEA(w, big.NewInt(987654321), answers, golden)
	return &Circuit{CS: cs, Witness: w, Public: cs.PublicInputs(w)}, nil
}

// Setup draws the circuit's proving and verifying keys from a seeded
// reader.
func (c *Circuit) Setup() (err error) {
	c.PK, c.VK, err = groth16.Setup(c.CS, drbg.New(0, "benchwork/groth16-setup"))
	return err
}

// Prove proves the witness under the keys Setup drew, from a seeded
// reader, and keeps the proof.
func (c *Circuit) Prove() (err error) {
	c.Proof, err = groth16.Prove(c.CS, c.PK, c.Witness, drbg.New(0, "benchwork/groth16-prove"))
	return err
}
