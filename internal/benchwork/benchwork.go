// Package benchwork defines, once, every workload the repository's
// benchmarks measure: the paper's §VI ImageNet task (Tables I–III and the
// headline fee claim), a wider PoQoEA proof, the batch-verification
// claims, the Groth16 baseline circuits, the marketplace and the
// chain-execute round. The root Go benchmarks, TestTableIIIGasBands and
// every mode of cmd/benchtables build their inputs here, so a number from
// one surface and the same-named number from another describe the same
// workload.
//
// Every fixture draws its keys, ciphertexts, proofs and Groth16 setup from
// seeded readers: building one twice gives identical bytes. Nothing the
// facade or the service runs imports this package.
package benchwork

import (
	"fmt"
	"io"
	"math/rand"
	"slices"

	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/poqoea"
	"dragoon/internal/sim"
	"dragoon/internal/task"
	"dragoon/internal/vpke"
	"dragoon/internal/worker"
)

// imageNetSeed seeds the ImageNet task, its simulated runs and its proof
// fixture.
const imageNetSeed = 2020

// Case selects one of the paper's two Table III runs of the ImageNet task.
type Case string

const (
	// BestCase: all four workers answer every question right and are paid.
	BestCase Case = "best"
	// WorstCase: every submission misses exactly three golden standards,
	// the paper's rejection bar ("a submission is rejected if failing in 3
	// gold-standards"), and is rejected through PoQoEA.
	WorstCase Case = "worst"
)

func imageNetTask() (*task.Instance, error) {
	return task.NewImageNet(4000, rand.New(rand.NewSource(imageNetSeed)))
}

// withWrongGolden returns inst's ground truth with its first n golden
// answers moved to the next option, so a quality proof over it reveals n
// wrong answers.
func withWrongGolden(inst *task.Instance, n int) []int64 {
	answers := append([]int64{}, inst.GroundTruth...)
	for _, gi := range inst.Golden.Indices[:n] {
		answers[gi] = (answers[gi] + 1) % inst.Task.RangeSize
	}
	return answers
}

// RunImageNet runs the ImageNet task (106 binary questions, 6 golden
// standards) end to end over BN254 with four workers named a–d, and fails
// if it does not finalize. Its gas is the run TestTableIIIGasBands asserts
// on.
func RunImageNet(c Case) (*sim.Result, error) {
	inst, err := imageNetTask()
	if err != nil {
		return nil, err
	}
	models := make([]worker.Model, 4)
	nonGolden := 0
	for i := range models {
		name := string(rune('a' + i))
		if c == BestCase {
			models[i] = worker.Perfect(name, inst.GroundTruth)
			continue
		}
		// Each worker also flips its own non-golden answer, so the four
		// submissions differ without changing their golden profile.
		for slices.Contains(inst.Golden.Indices, nonGolden) {
			nonGolden++
		}
		answers := withWrongGolden(inst, 3)
		answers[nonGolden] = 1 - answers[nonGolden]
		nonGolden++
		models[i] = worker.Perfect(name, answers)
	}
	res, err := sim.Run(sim.Config{
		Instance: inst,
		Group:    group.BN254G1(),
		Workers:  models,
		Seed:     imageNetSeed,
	})
	if err != nil {
		return nil, err
	}
	if !res.Finalized {
		return nil, fmt.Errorf("benchwork: ImageNet %s case did not finalize", c)
	}
	return res, nil
}

// Proofs is one requester key and one encrypted submission with its
// quality claim, plus a VPKE decryption proof of the first ciphertext: the
// input of the proving, verification and encryption benchmarks.
type Proofs struct {
	Key *elgamal.PrivateKey
	poqoea.Claim
	Answers []int64
	// Dec and DecProof are Cts[0]'s plaintext and its VPKE proof.
	Dec      elgamal.Plaintext
	DecProof *vpke.Proof
}

// ImageNetProofs is the ImageNet task answered with exactly three golden
// answers wrong, so its quality proof carries three VPKE openings (Tables
// I and II).
func ImageNetProofs() (*Proofs, error) {
	inst, err := imageNetTask()
	if err != nil {
		return nil, err
	}
	return newProofs(inst, 3, imageNetSeed)
}

// WideProofs is wider than the paper's task: 64 questions with 32 golden
// standards, 16 of them answered wrong, so a quality proof carries 16
// independent VPKE openings, enough to keep a small pool busy.
func WideProofs() (*Proofs, error) {
	inst, err := task.Generate(task.GenerateParams{
		ID: "parbench", N: 64, RangeSize: 4, NumGolden: 32,
		Workers: 1, Threshold: 1, Budget: 100,
	}, rand.New(rand.NewSource(4)))
	if err != nil {
		return nil, err
	}
	return newProofs(inst, 16, 4)
}

func newProofs(inst *task.Instance, wrong int, seed int64) (*Proofs, error) {
	rnd := drbg.New(seed, "benchwork/proofs")
	sk, err := elgamal.KeyGen(group.BN254G1(), rnd)
	if err != nil {
		return nil, err
	}
	p := &Proofs{Key: sk, Answers: withWrongGolden(inst, wrong)}
	if p.Claim, err = newClaim(sk, inst, p.Answers, rnd); err != nil {
		return nil, err
	}
	if p.Dec, p.DecProof, err = vpke.Prove(sk, p.Cts[0], p.Statement.RangeSize, rnd); err != nil {
		return nil, err
	}
	return p, nil
}

// newClaim encrypts answers to inst under sk and proves their quality.
func newClaim(sk *elgamal.PrivateKey, inst *task.Instance, answers []int64, rnd io.Reader) (c poqoea.Claim, err error) {
	c.Statement = inst.Golden.Statement(inst.Task.RangeSize)
	if c.Cts, err = poqoea.EncryptAnswers(&sk.PublicKey, answers, rnd); err != nil {
		return c, err
	}
	c.Chi, c.Proof, err = poqoea.Prove(sk, c.Cts, c.Statement, rnd)
	return c, err
}

// ClaimQuestions is the question count of each batch-verification claim.
const ClaimQuestions = 16

// Claims returns a requester key over BN254 and n distinct quality claims
// under it. Each claim is its own 16-question task with 8 golden standards,
// 4 of them answered wrong, so each proof carries 4 VPKE openings; small
// tasks keep large batches affordable. The claims come from one seeded
// stream, so Claims(k) is a prefix of Claims(n) for k ≤ n and one claim set
// serves every batch size.
func Claims(n int) (*elgamal.PrivateKey, []poqoea.Claim, error) {
	rng := rand.New(rand.NewSource(64))
	rnd := drbg.New(64, "benchwork/claims")
	sk, err := elgamal.KeyGen(group.BN254G1(), rnd)
	if err != nil {
		return nil, nil, err
	}
	claims := make([]poqoea.Claim, n)
	for i := range claims {
		inst, err := task.Generate(task.GenerateParams{
			ID: fmt.Sprintf("claim-%d", i), N: ClaimQuestions, RangeSize: 4,
			NumGolden: 8, Workers: 1, Threshold: 1, Budget: 100,
		}, rng)
		if err != nil {
			return nil, nil, err
		}
		if claims[i], err = newClaim(sk, inst, withWrongGolden(inst, 4), rnd); err != nil {
			return nil, nil, err
		}
	}
	return sk, claims, nil
}
