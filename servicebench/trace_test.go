package main

import "testing"

// A round whose worker pool ran three items on two goroutines: the items
// overlap, so the pool's covered part is their union, not their sum.
func poolRound() []span {
	return []span{
		{Name: "round", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "Runtime.StepRequester", ID: 1, Parent: 0, Start: 0, End: 10},
		{Name: "worker.pool", ID: 2, Parent: 0, Start: 10, End: 62},
		{Name: "Runtime.WorkerTxs", ID: 3, Parent: 2, Start: 10, End: 40},
		{Name: "Runtime.WorkerTxs", ID: 4, Parent: 2, Start: 12, End: 55},
		{Name: "Runtime.WorkerTxs", ID: 5, Parent: 2, Start: 41, End: 60},
		{Name: "Chain.MineRound", ID: 6, Parent: 0, Start: 62, End: 92},
	}
}

func TestSelfTimeUnionsOverlappingPoolChildren(t *testing.T) {
	self := selfTimes(poolRound())
	want := []int64{
		100 - (10 + 52 + 30), // round: 8 ns in no layer span
		10,
		52 - 50, // pool: items cover [10,60], idle 2 ns
		30, 43, 19,
		30,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self time = %d, want %d", i, self[i], want[i])
		}
	}
}

func TestSelfTimeClipsChildrenToTheParent(t *testing.T) {
	spans := []span{
		{Name: "a", ID: 0, Parent: -1, Start: 10, End: 20},
		{Name: "b", ID: 1, Parent: 0, Start: 5, End: 15},
		{Name: "c", ID: 2, Parent: 0, Start: 18, End: 30},
	}
	if got := selfTimes(spans)[0]; got != 3 {
		t.Errorf("self time = %d, want 3 (only [15,18) is uncovered)", got)
	}
}

func TestProfileBusyWallCoverage(t *testing.T) {
	spans := poolRound()
	p := newProfile(spans)
	if got := p.selfSum("Runtime.WorkerTxs"); got != 30+43+19 {
		t.Errorf("pool busy time = %d, want 92", got)
	}
	if got := p.dur["worker.pool"]; got != 52 {
		t.Errorf("pool wall time = %d, want 52", got)
	}
	if got := p.coverage(); got != 0.92 {
		t.Errorf("coverage = %v, want 0.92", got)
	}
	// Two goroutines for 52 ns each, busy for 92 of them.
	if got := poolCapacity(spans, 2); got != 104 {
		t.Errorf("pool capacity = %d, want 104", got)
	}
	if got := poolCapacity(spans, 8); got != 156 {
		t.Errorf("pool capacity with more goroutines than items = %d, want 156 (3 items)", got)
	}
}

func TestUnionLength(t *testing.T) {
	for _, tc := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 5}}, 5},
		{[][2]int64{{5, 9}, {0, 3}}, 7},
		{[][2]int64{{0, 5}, {5, 8}}, 8},
		{[][2]int64{{0, 10}, {2, 4}, {3, 12}}, 12},
	} {
		if got := unionLength(tc.ivs); got != tc.want {
			t.Errorf("unionLength(%v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}
