package main

// The chain_execute_m{1,8} ops of the -json report: one optimistically
// executed round of M tasks × 8 worker transactions on one shared chain,
// each transaction verifying a Schnorr-style statement through the metered
// group (two ECMULs + one ECADD — the cost shape of a real rejection-proof
// verification) and writing its own per-worker keys while reading only its
// task's shared phase key. The executor worker count resolves from
// runtime.GOMAXPROCS, which the harness sets per row, so its workers=1 row
// measures sequential round execution and the parallel row the optimistic
// engine. Mirrors BenchmarkChainExecute at the repository root.

import (
	"errors"
	"fmt"
	"math/big"

	"dragoon/internal/chain"
	"dragoon/internal/group"
	"dragoon/internal/ledger"
)

const chainExecWorkersPerTask = 8

// chainExecContract is the bench contract (see the file comment).
type chainExecContract struct {
	g group.Group
	p group.Element
}

func (cb *chainExecContract) Execute(env *chain.Env, from chain.Address, method string, data []byte) error {
	switch method {
	case "publish":
		env.StoreSet("phase", []byte{1})
		return nil
	case "verify":
		if _, ok := env.StoreGet("phase"); !ok {
			return errors.New("chainexec: not published")
		}
		mg := chain.NewMeteredGroup(env, cb.g)
		k := new(big.Int).SetBytes(data)
		s := mg.Add(mg.ScalarMul(cb.p, k), mg.ScalarBaseMul(k))
		env.StoreSet("acc:"+string(from), mg.Marshal(s))
		env.Emit("accepted", 1, []byte(from))
		return nil
	default:
		return fmt.Errorf("chainexec: unknown method %q", method)
	}
}

// chainExecuteFn returns the op body: build a fresh chain with m contracts,
// mine the cheap publish round, then mine ONE measured-shape round of
// m × 8 verify transactions.
func chainExecuteFn(m int) func() {
	g := group.BN254G1()
	ctr := &chainExecContract{g: g, p: g.ScalarBaseMul(big.NewInt(101))}
	scalar := func(ti, w int) []byte {
		out := make([]byte, 32)
		for i := range out {
			out[i] = byte(ti*131 + w*31 + i*17 + 1)
		}
		return out
	}
	return func() {
		c := chain.New(ledger.New(), nil)
		c.SetParallelExecution(chain.ResolveExecWorkers(0, 0))
		for ti := 0; ti < m; ti++ {
			id := ledger.ContractID(fmt.Sprintf("task-%d", ti))
			if _, err := c.Deploy(id, ctr, 100, "requester"); err != nil {
				panic(err)
			}
			if err := c.Submit(&chain.Tx{From: "requester", Contract: id, Method: "publish"}); err != nil {
				panic(err)
			}
		}
		if _, err := c.MineRound(); err != nil {
			panic(err)
		}
		for ti := 0; ti < m; ti++ {
			id := ledger.ContractID(fmt.Sprintf("task-%d", ti))
			for w := 0; w < chainExecWorkersPerTask; w++ {
				if err := c.Submit(&chain.Tx{
					From:     chain.Address(fmt.Sprintf("worker-%d-%d", ti, w)),
					Contract: id,
					Method:   "verify",
					Data:     scalar(ti, w),
				}); err != nil {
					panic(err)
				}
			}
		}
		receipts, err := c.MineRound()
		if err != nil {
			panic(err)
		}
		for _, rcpt := range receipts {
			if rcpt.Err != nil {
				panic(fmt.Sprintf("chainexec: tx reverted: %v", rcpt.Err))
			}
		}
	}
}
