package groth16

import (
	"errors"
	"fmt"

	"dragoon/internal/bn254"
	"dragoon/internal/wire"
)

// Verifying-key serialization lets a deployment ship the CRS to verifiers
// (e.g. embed it in a contract) without rerunning the trusted setup. The
// proving key is large and party-local, so only the verifying key gets a
// wire format.

// Marshal encodes the verifying key.
func (vk *VerifyingKey) Marshal() []byte {
	w := wire.NewWriter()
	w.WriteFixed(vk.Alpha1.Marshal())
	w.WriteFixed(vk.Beta2.Marshal())
	w.WriteFixed(vk.Gamma2.Marshal())
	w.WriteFixed(vk.Delta2.Marshal())
	w.WriteUint(uint64(len(vk.IC)))
	for _, ic := range vk.IC {
		w.WriteFixed(ic.Marshal())
	}
	return w.Bytes()
}

// UnmarshalVerifyingKey decodes a verifying key, validating every point.
func UnmarshalVerifyingKey(data []byte) (*VerifyingKey, error) {
	r := wire.NewReader(data)
	readG1 := func(what string) (*bn254.G1, error) {
		raw, err := r.ReadFixed(64)
		if err != nil {
			return nil, fmt.Errorf("groth16: vk.%s: %w", what, err)
		}
		pt, err := bn254.UnmarshalG1(raw)
		if err != nil {
			return nil, fmt.Errorf("groth16: vk.%s: %w", what, err)
		}
		return pt, nil
	}
	readG2 := func(what string) (*bn254.G2, error) {
		raw, err := r.ReadFixed(128)
		if err != nil {
			return nil, fmt.Errorf("groth16: vk.%s: %w", what, err)
		}
		pt, err := bn254.UnmarshalG2(raw)
		if err != nil {
			return nil, fmt.Errorf("groth16: vk.%s: %w", what, err)
		}
		return pt, nil
	}

	vk := &VerifyingKey{}
	var err error
	if vk.Alpha1, err = readG1("alpha"); err != nil {
		return nil, err
	}
	if vk.Beta2, err = readG2("beta"); err != nil {
		return nil, err
	}
	if vk.Gamma2, err = readG2("gamma"); err != nil {
		return nil, err
	}
	if vk.Delta2, err = readG2("delta"); err != nil {
		return nil, err
	}
	n, err := r.ReadCount()
	if err != nil {
		return nil, fmt.Errorf("groth16: vk.IC count: %w", err)
	}
	if n == 0 {
		return nil, errors.New("groth16: vk.IC is empty")
	}
	vk.IC = make([]*bn254.G1, n)
	for i := range vk.IC {
		if vk.IC[i], err = readG1(fmt.Sprintf("IC[%d]", i)); err != nil {
			return nil, err
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("groth16: vk: %w", err)
	}
	return vk, nil
}
