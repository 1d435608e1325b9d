package parallel_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dragoon/internal/parallel"
)

func TestWorkersResolution(t *testing.T) {
	if got := parallel.Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := parallel.Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(prev + 1)
	defer runtime.GOMAXPROCS(prev)
	if got := parallel.Workers(0); got != prev+1 {
		t.Errorf("Workers(0) after GOMAXPROCS(%d) = %d", prev+1, got)
	}
	if got := parallel.Workers(5); got != 5 {
		t.Errorf("explicit request must win over default: got %d", got)
	}
}

func TestForPoolBound(t *testing.T) {
	const n, workers = 64, 4
	var cur, peak atomic.Int64
	err := parallel.For(context.Background(), n, workers, func(i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent items, bound is %d", p, workers)
	}
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	const n = 1000
	counts := make([]atomic.Int64, n)
	if err := parallel.For(context.Background(), n, 8, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestMapOrderingDeterminism(t *testing.T) {
	const n = 500
	for _, workers := range []int{1, 2, 8, 32} {
		out, err := parallel.Map(context.Background(), n, workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForLowestIndexErrorWins(t *testing.T) {
	errAt := func(bad map[int]error) error {
		return parallel.For(context.Background(), 100, 8, func(i int) error {
			return bad[i]
		})
	}
	e7, e40 := errors.New("e7"), errors.New("e40")
	for trial := 0; trial < 20; trial++ {
		if err := errAt(map[int]error{40: e40, 7: e7}); !errors.Is(err, e7) {
			t.Fatalf("trial %d: got %v, want the lowest-index error e7", trial, err)
		}
	}
}

func TestForCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	var release sync.WaitGroup
	release.Add(1)
	done := make(chan error, 1)
	go func() {
		done <- parallel.For(ctx, 10_000, 2, func(i int) error {
			started.Add(1)
			release.Wait()
			return nil
		})
	}()
	for started.Load() < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	release.Done()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("For did not return after cancellation")
	}
	if s := started.Load(); s >= 10_000 {
		t.Errorf("cancellation did not stop scheduling (all %d items started)", s)
	}
}

func TestForPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic was swallowed", workers)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "boom-17") {
					t.Fatalf("workers=%d: panic %q lost the original value", workers, msg)
				}
			}()
			_ = parallel.For(context.Background(), 100, workers, func(i int) error {
				if i == 17 {
					panic("boom-17")
				}
				return nil
			})
		}()
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	if err := parallel.For(context.Background(), 0, 4, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := parallel.For(context.Background(), -3, 4, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn invoked for empty range")
	}
}

func TestDo(t *testing.T) {
	a, b := 0, 0
	if err := parallel.Do(
		func() error { a = 1; return nil },
		func() error { b = 2; return nil },
	); err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 2 {
		t.Errorf("tasks did not run: a=%d b=%d", a, b)
	}
	want := errors.New("first")
	err := parallel.Do(
		func() error { return want },
		func() error { return errors.New("second") },
	)
	if !errors.Is(err, want) {
		t.Errorf("Do returned %v, want lowest-index error", err)
	}
}

func TestChunksCoverRange(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{10, 3}, {1, 8}, {100, 7}, {7, 7}, {8, 1}} {
		covered := make([]bool, tc.n)
		last := -1
		parallel.Chunks(tc.n, tc.workers, func(c, start, end int) {
			if c != last+1 {
				t.Fatalf("n=%d w=%d: chunk indices out of order", tc.n, tc.workers)
			}
			last = c
			for i := start; i < end; i++ {
				if covered[i] {
					t.Fatalf("n=%d w=%d: index %d covered twice", tc.n, tc.workers, i)
				}
				covered[i] = true
			}
		})
		for i, ok := range covered {
			if !ok {
				t.Fatalf("n=%d w=%d: index %d not covered", tc.n, tc.workers, i)
			}
		}
		if last+1 > parallel.Workers(tc.workers) {
			t.Fatalf("n=%d w=%d: %d chunks exceed worker bound", tc.n, tc.workers, last+1)
		}
	}
	if c := parallel.Chunks(0, 4, func(int, int, int) { t.Fatal("span called for n=0") }); c != 0 {
		t.Errorf("Chunks(0) = %d", c)
	}
}

// TestForSpansRunsSpansConcurrently: unlike Chunks, ForSpans hands each span
// to its own pool worker — two spans must be able to meet at a rendezvous.
func TestForSpansRunsSpansConcurrently(t *testing.T) {
	var arrived sync.WaitGroup
	arrived.Add(2)
	err := parallel.ForSpans(context.Background(), 10, 2, func(start, end int) error {
		arrived.Done()
		done := make(chan struct{})
		go func() { arrived.Wait(); close(done) }()
		select {
		case <-done:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("span [%d,%d) ran alone", start, end)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForSpansLowestSpanErrorWins(t *testing.T) {
	for _, workers := range []int{1, 3} {
		err := parallel.ForSpans(context.Background(), 9, workers, func(start, end int) error {
			for i := start; i < end; i++ {
				if i%4 == 3 {
					return fmt.Errorf("index %d", i)
				}
			}
			return nil
		})
		if err == nil || err.Error() != "index 3" {
			t.Errorf("workers=%d: got %v, want the lowest failing index 3", workers, err)
		}
	}
}

func TestMapSpansCoverRangeInOrder(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{10, 3}, {1, 8}, {100, 7}, {0, 4}} {
		got, err := parallel.MapSpans(context.Background(), tc.n, tc.workers, func(start, end int) ([2]int, error) {
			return [2]int{start, end}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var want [][2]int
		parallel.Chunks(tc.n, tc.workers, func(_, start, end int) {
			want = append(want, [2]int{start, end})
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("n=%d w=%d: spans %v, want %v", tc.n, tc.workers, got, want)
		}
	}
}
