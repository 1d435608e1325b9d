package benchwork

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"

	"dragoon/internal/chain"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
	"dragoon/internal/market"
	"dragoon/internal/protocol"
	"dragoon/internal/task"
	"dragoon/internal/worker"
)

// The marketplace workload's shape: M small tasks on one shared chain over
// the test group, so protocol and harness logic rather than curve
// arithmetic dominates.
const (
	MarketTasks     = 8
	MarketQuestions = 24
	marketWorkers   = 5
)

// Marketplace returns the marketplace workload: MarketTasks tasks of
// MarketQuestions questions over a shared population. One task-agnostic
// member enrolls in every task, and each task adds four perfect workers of
// its own. The config is stateless (deterministic models, a fresh chain per
// run), so one value serves any number of runs.
func Marketplace() (market.Config, error) {
	population := []worker.Model{{
		Name:     "everywhere",
		Strategy: protocol.StrategyHonest,
		Answers: func(qs []task.Question, rangeSize int64) []int64 {
			out := make([]int64, len(qs))
			for i := range out {
				out[i] = int64(i) % rangeSize
			}
			return out
		},
	}}
	specs := make([]market.TaskSpec, MarketTasks)
	for ti := range specs {
		inst, err := task.Generate(task.GenerateParams{
			ID: fmt.Sprintf("bench-mkt-%d", ti), N: MarketQuestions,
			RangeSize: 4, NumGolden: 6, Workers: marketWorkers,
			Threshold: 3, Budget: 5000,
		}, rand.New(rand.NewSource(int64(300+ti))))
		if err != nil {
			return market.Config{}, err
		}
		enroll := []int{0}
		for w := 0; w < marketWorkers-1; w++ {
			enroll = append(enroll, len(population))
			population = append(population,
				worker.Perfect(fmt.Sprintf("w%d-%d", ti, w), inst.GroundTruth))
		}
		specs[ti] = market.TaskSpec{Instance: inst, Enroll: enroll}
	}
	return market.Config{
		Tasks:      specs,
		Group:      group.TestSchnorr(),
		Population: population,
		Seed:       300,
	}, nil
}

// ExecTxsPerTask is the number of worker transactions per task in the
// chain-execute round.
const ExecTxsPerTask = 8

// execContract is the chain-execute contract: "publish" writes the shared
// phase key; "verify" requires it, performs two ECMULs and one ECADD
// through the metered group (the cost shape of a rejection-proof
// verification), and stores the result under a per-sender key.
type execContract struct {
	g group.Group
	p group.Element
}

func (cb *execContract) Execute(env *chain.Env, from chain.Address, method string, data []byte) error {
	switch method {
	case "publish":
		env.StoreSet("phase", []byte{1})
		return nil
	case "verify":
		if _, ok := env.StoreGet("phase"); !ok {
			return errors.New("benchwork: not published")
		}
		mg := chain.NewMeteredGroup(env, cb.g)
		k := new(big.Int).SetBytes(data)
		s := mg.Add(mg.ScalarMul(cb.p, k), mg.ScalarBaseMul(k))
		env.StoreSet("acc:"+string(from), mg.Marshal(s))
		env.Emit("accepted", 1, []byte(from))
		return nil
	default:
		return fmt.Errorf("benchwork: unknown method %q", method)
	}
}

// ExecRound returns the chain-execute op for m tasks. Each call builds a
// fresh chain with m contracts, mines their cheap publish round, then mines
// the measured round: m × ExecTxsPerTask verify transactions over BN254.
// Every verify writes only its sender's keys and reads only its task's
// phase key, so the round parallelizes under key-level conflict detection.
// The executor's worker count follows runtime.GOMAXPROCS.
func ExecRound(m int) func() error {
	g := group.BN254G1()
	ctr := &execContract{g: g, p: g.ScalarBaseMul(big.NewInt(101))}
	return func() error {
		c := chain.New(ledger.New(), nil)
		c.SetParallelExecution(chain.ResolveExecWorkers(0, 0))
		for ti := 0; ti < m; ti++ {
			id := ledger.ContractID(fmt.Sprintf("task-%d", ti))
			if _, err := c.Deploy(id, ctr, 100, "requester"); err != nil {
				return err
			}
			if err := c.Submit(&chain.Tx{From: "requester", Contract: id, Method: "publish"}); err != nil {
				return err
			}
		}
		if _, err := c.MineRound(); err != nil {
			return err
		}
		for ti := 0; ti < m; ti++ {
			id := ledger.ContractID(fmt.Sprintf("task-%d", ti))
			for w := 0; w < ExecTxsPerTask; w++ {
				scalar := make([]byte, 32)
				for i := range scalar {
					scalar[i] = byte(ti*131 + w*31 + i*17 + 1)
				}
				if err := c.Submit(&chain.Tx{
					From:     chain.Address(fmt.Sprintf("worker-%d-%d", ti, w)),
					Contract: id,
					Method:   "verify",
					Data:     scalar,
				}); err != nil {
					return err
				}
			}
		}
		receipts, err := c.MineRound()
		if err != nil {
			return err
		}
		for _, rcpt := range receipts {
			if rcpt.Err != nil {
				return fmt.Errorf("benchwork: chain-execute tx reverted: %w", rcpt.Err)
			}
		}
		return nil
	}
}
