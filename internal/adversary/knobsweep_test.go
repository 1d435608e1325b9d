package adversary_test

import (
	"testing"

	"dragoon/internal/adversary"
)

// A sweepKnob is a per-run execution option that must not change anything
// observable. The knob sweep runs every harness with it forced off (-1) and
// forced on (+1), and demands byte-identical fingerprints and a clean
// invariant check on the "on" run:
//
//   - BatchVerify folds verification equations (bisecting on failure), so
//     it must decide exactly like per-proof verification; on the shared
//     chain it also drives the marketplace round auditor, which re-verifies
//     every rejection proof of a mined round in one cross-task fold.
//   - ParallelExec runs each round through the optimistic Block-STM-style
//     executor, so speculate → validate → commit must re-execute exactly
//     the transactions whose reads were invalidated; the shared chain, with
//     many tasks' transactions per round, is the workload it exists for.
//
// The harnesses are the sim per scenario, the whole participant matrix on
// one shared chain, and the same matrix streamed through the service.
// Knobs are per-run options, so every case runs in parallel.
type sweepKnob struct {
	name string
	set  func(o *adversary.Options, mode int)
}

var (
	batchVerify  = sweepKnob{"BatchVerify", func(o *adversary.Options, mode int) { o.BatchVerify = mode }}
	parallelExec = sweepKnob{"ParallelExec", func(o *adversary.Options, mode int) { o.ParallelExec = mode }}
)

type sweepHarness func(adversary.Options) (*adversary.Report, error)

func sharedChain(o adversary.Options) (*adversary.Report, error) {
	return adversary.RunMatrix(adversary.ParticipantMatrix(), o)
}

func stream(o adversary.Options) (*adversary.Report, error) {
	return adversary.RunMatrixStream(adversary.ParticipantMatrix(), o, false)
}

// sweep runs one harness with k off and on and compares the two reports.
func sweep(t *testing.T, k sweepKnob, run sweepHarness) {
	t.Parallel()
	off, on := opts(0), opts(0)
	k.set(&off, -1)
	k.set(&on, +1)
	offRep, err := run(off)
	if err != nil {
		t.Fatal(err)
	}
	onRep, err := run(on)
	if err != nil {
		t.Fatal(err)
	}
	if err := onRep.CheckInvariants(); err != nil {
		t.Errorf("%s on violates invariants: %v", k.name, err)
	}
	if fingerprint(offRep) != fingerprint(onRep) {
		t.Errorf("%s on diverged from %s off", k.name, k.name)
	}
}

// sweepSim sweeps k over every scenario of the catalogue, one subtest each.
func sweepSim(t *testing.T, k sweepKnob) {
	t.Parallel()
	for _, s := range adversary.Matrix() {
		t.Run(s.Name, func(t *testing.T) { sweep(t, k, s.RunSim) })
	}
}

func TestMatrixBatchSweepSim(t *testing.T)         { sweepSim(t, batchVerify) }
func TestMatrixBatchSweepSharedChain(t *testing.T) { sweep(t, batchVerify, sharedChain) }
func TestMatrixBatchSweepStream(t *testing.T)      { sweep(t, batchVerify, stream) }
func TestMatrixExecSweepSim(t *testing.T)          { sweepSim(t, parallelExec) }
func TestMatrixExecSweepSharedChain(t *testing.T)  { sweep(t, parallelExec, sharedChain) }
func TestMatrixExecSweepStream(t *testing.T)       { sweep(t, parallelExec, stream) }
