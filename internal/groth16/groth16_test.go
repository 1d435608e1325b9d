package groth16_test

import (
	"math/big"
	"testing"

	"dragoon/internal/bn254"
	"dragoon/internal/drbg"
	"dragoon/internal/gadget"
	"dragoon/internal/groth16"
	"dragoon/internal/r1cs"
)

// vpkeSetup builds and assigns a small VPKE stand-in circuit.
func vpkeSetup(t *testing.T, steps int, key, plain int64) (*r1cs.System, r1cs.Witness) {
	t.Helper()
	cs := r1cs.NewSystem(groth16.FieldOf())
	c, err := gadget.BuildVPKE(cs, steps)
	if err != nil {
		t.Fatalf("BuildVPKE: %v", err)
	}
	w := cs.NewWitness()
	c.AssignVPKE(w, big.NewInt(key), big.NewInt(plain), steps)
	if err := cs.Satisfied(w); err != nil {
		t.Fatalf("witness unsatisfying: %v", err)
	}
	return cs, w
}

func TestProveVerifyRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("groth16 end-to-end is slow")
	}
	rnd := drbg.New(1, "TestProveVerifyRoundtrip")
	cs, w := vpkeSetup(t, 30, 12345, 1)
	pk, vk, err := groth16.Setup(cs, rnd)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	proof, err := groth16.Prove(cs, pk, w, rnd)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	ok, err := groth16.Verify(vk, cs.PublicInputs(w), proof)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !ok {
		t.Fatal("honest proof rejected")
	}
}

func TestVerifyRejectsWrongPublicInput(t *testing.T) {
	if testing.Short() {
		t.Skip("groth16 end-to-end is slow")
	}
	rnd := drbg.New(2, "TestVerifyRejectsWrongPublicInput")
	cs, w := vpkeSetup(t, 30, 999, 0)
	pk, vk, err := groth16.Setup(cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := groth16.Prove(cs, pk, w, rnd)
	if err != nil {
		t.Fatal(err)
	}
	pub := cs.PublicInputs(w)
	pub[1] = new(big.Int).Add(pub[1], big.NewInt(1)) // tamper with chain output
	ok, err := groth16.Verify(vk, pub, proof)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("proof accepted for tampered public input")
	}
}

func TestVerifyRejectsMangledProof(t *testing.T) {
	if testing.Short() {
		t.Skip("groth16 end-to-end is slow")
	}
	rnd := drbg.New(3, "TestVerifyRejectsMangledProof")
	cs, w := vpkeSetup(t, 20, 7, 1)
	pk, vk, err := groth16.Setup(cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := groth16.Prove(cs, pk, w, rnd)
	if err != nil {
		t.Fatal(err)
	}
	mangled := *proof
	mangled.A = proof.A.Add(bn254.G1Generator())
	if ok, _ := groth16.Verify(vk, cs.PublicInputs(w), &mangled); ok {
		t.Fatal("mangled proof accepted")
	}
	if ok, _ := groth16.Verify(vk, cs.PublicInputs(w)[:1], proof); ok {
		t.Fatal("short public input accepted")
	}
	if _, err := groth16.Verify(vk, cs.PublicInputs(w), nil); err == nil {
		t.Fatal("nil proof accepted")
	}
}

func TestProveRejectsBadWitness(t *testing.T) {
	rnd := drbg.New(4, "TestProveRejectsBadWitness")
	cs, w := vpkeSetup(t, 10, 42, 1)
	pk, _, err := groth16.Setup(cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	w[len(w)-1] = big.NewInt(123456) // corrupt the chain tail
	if _, err := groth16.Prove(cs, pk, w, rnd); err == nil {
		t.Fatal("unsatisfying witness proved")
	}
}

func TestProofMarshalRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("groth16 end-to-end is slow")
	}
	rnd := drbg.New(5, "TestProofMarshalRoundtrip")
	cs, w := vpkeSetup(t, 10, 5, 1)
	pk, vk, err := groth16.Setup(cs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := groth16.Prove(cs, pk, w, rnd)
	if err != nil {
		t.Fatal(err)
	}
	enc := proof.Marshal()
	if len(enc) != 256 {
		t.Fatalf("proof encoding length %d, want 256 (the paper's succinctness)", len(enc))
	}
	dec, err := groth16.UnmarshalProof(enc)
	if err != nil {
		t.Fatalf("UnmarshalProof: %v", err)
	}
	ok, err := groth16.Verify(vk, cs.PublicInputs(w), dec)
	if err != nil || !ok {
		t.Fatalf("roundtripped proof rejected: %v %v", ok, err)
	}
	if _, err := groth16.UnmarshalProof(enc[:100]); err == nil {
		t.Error("short proof encoding accepted")
	}
}

func TestMSMMatchesNaive(t *testing.T) {
	points := make([]*bn254.G1, 40)
	scalars := make([]*big.Int, 40)
	for i := range points {
		points[i] = bn254.G1ScalarBaseMul(big.NewInt(int64(i + 2)))
		scalars[i] = big.NewInt(int64(i*i + 1))
	}
	got := groth16.MSMG1(points, scalars)
	want := bn254.G1Infinity()
	for i := range points {
		want = want.Add(points[i].ScalarMul(scalars[i]))
	}
	if !got.Equal(want) {
		t.Fatal("Pippenger MSM disagrees with naive sum")
	}
}

func TestMSMEdgeCases(t *testing.T) {
	if !groth16.MSMG1(nil, nil).IsInfinity() {
		t.Error("empty MSM not identity")
	}
	// Nil points are skipped (private-wire slices have nil holes).
	points := []*bn254.G1{nil, bn254.G1Generator(), nil}
	scalars := []*big.Int{big.NewInt(5), big.NewInt(3), big.NewInt(7)}
	got := groth16.MSMG1(points, scalars)
	if !got.Equal(bn254.G1ScalarBaseMul(big.NewInt(3))) {
		t.Error("nil-point filtering broken")
	}
	// All-zero scalars.
	if !groth16.MSMG1([]*bn254.G1{bn254.G1Generator()}, []*big.Int{big.NewInt(0)}).IsInfinity() {
		t.Error("zero-scalar MSM not identity")
	}
}

func TestMSMG2MatchesNaive(t *testing.T) {
	points := make([]*bn254.G2, 10)
	scalars := make([]*big.Int, 10)
	for i := range points {
		points[i] = bn254.G2ScalarBaseMul(big.NewInt(int64(3*i + 1)))
		scalars[i] = big.NewInt(int64(7*i + 2))
	}
	got := groth16.MSMG2(points, scalars)
	want := bn254.G2Infinity()
	for i := range points {
		want = want.Add(points[i].ScalarMul(scalars[i]))
	}
	if !got.Equal(want) {
		t.Fatal("G2 MSM disagrees with naive sum")
	}
}
