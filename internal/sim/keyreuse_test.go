package sim_test

import (
	"math/rand"
	"testing"

	"dragoon/internal/drbg"
	"dragoon/internal/elgamal"
	"dragoon/internal/group"
	"dragoon/internal/sim"
	"dragoon/internal/task"
	"dragoon/internal/worker"
)

// TestOneKeyPairAcrossTasks reproduces the §VI claim that a requester can
// "manage only one private-public key pair throughout all her tasks": two
// distinct tasks run with the same key, and both complete with correct
// payments and harvested answers.
func TestOneKeyPairAcrossTasks(t *testing.T) {
	g := group.TestSchnorr()
	key, err := elgamal.KeyGen(g, drbg.New(60, "TestOneKeyPairAcrossTasks"))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"task-one", "task-two"} {
		rng := rand.New(rand.NewSource(int64(60 + i)))
		inst, err := task.Generate(task.GenerateParams{
			ID: id, N: 10, RangeSize: 3, NumGolden: 3,
			Workers: 2, Threshold: 2, Budget: 200,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Instance:     inst,
			Group:        g,
			RequesterKey: key,
			Workers: []worker.Model{
				worker.Perfect("w0", inst.GroundTruth),
				worker.Perfect("w1", inst.GroundTruth),
			},
			Seed: int64(60 + i),
		})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !res.Finalized {
			t.Fatalf("%s did not finalize", id)
		}
		for _, o := range res.Outcomes {
			if !o.Paid {
				t.Errorf("%s: worker %s not paid", id, o.Name)
			}
		}
		for addr, answers := range res.HarvestedAnswers {
			for q, a := range answers {
				if a != inst.GroundTruth[q] {
					t.Errorf("%s: harvested %s[%d] = %d, want %d", id, addr, q, a, inst.GroundTruth[q])
				}
			}
		}
	}
}

// TestKeyGroupMismatchRejected guards the key-reuse path against mixing
// group backends.
func TestKeyGroupMismatchRejected(t *testing.T) {
	key, err := elgamal.KeyGen(group.TestSchnorr(), drbg.New(70, "TestKeyGroupMismatchRejected"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(70))
	inst, err := task.Generate(task.GenerateParams{
		ID: "mix", N: 4, RangeSize: 2, NumGolden: 1,
		Workers: 1, Threshold: 1, Budget: 10,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(sim.Config{
		Instance:     inst,
		Group:        group.BN254G1(),
		RequesterKey: key,
		Workers:      []worker.Model{worker.Perfect("w", inst.GroundTruth)},
		Seed:         70,
	})
	if err == nil {
		t.Fatal("group-mismatched key accepted")
	}
}
