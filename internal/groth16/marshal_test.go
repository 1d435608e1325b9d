package groth16_test

import (
	"math/big"
	"testing"

	"dragoon/internal/drbg"
	"dragoon/internal/gadget"
	"dragoon/internal/groth16"
	"dragoon/internal/r1cs"
)

func TestVerifyingKeyRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("groth16 setup is slow")
	}
	rnd := drbg.New(6, "TestVerifyingKeyRoundtrip")
	cs := r1cs.NewSystem(groth16.FieldOf())
	c, err := gadget.BuildVPKE(cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := cs.NewWitness()
	c.AssignVPKE(w, bigInt(3), bigInt(1), 8)
	pk, vk, err := groth16.Setup(cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := groth16.Prove(cs, pk, w, rnd)
	if err != nil {
		t.Fatal(err)
	}

	enc := vk.Marshal()
	dec, err := groth16.UnmarshalVerifyingKey(enc)
	if err != nil {
		t.Fatalf("UnmarshalVerifyingKey: %v", err)
	}
	ok, err := groth16.Verify(dec, cs.PublicInputs(w), proof)
	if err != nil || !ok {
		t.Fatalf("proof rejected under roundtripped vk: %v %v", ok, err)
	}

	if _, err := groth16.UnmarshalVerifyingKey(enc[:len(enc)-5]); err == nil {
		t.Error("truncated vk accepted")
	}
	if _, err := groth16.UnmarshalVerifyingKey(append(enc, 1)); err == nil {
		t.Error("trailing garbage accepted")
	}
	mangled := append([]byte{}, enc...)
	mangled[10] ^= 0xff // corrupt alpha: point validation must fire
	if _, err := groth16.UnmarshalVerifyingKey(mangled); err == nil {
		t.Error("off-curve vk point accepted")
	}
}

func bigInt(v int64) *big.Int { return big.NewInt(v) }
