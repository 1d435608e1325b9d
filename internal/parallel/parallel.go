// Package parallel is the work-pool engine behind every concurrent hot path
// in the repository: multi-scalar multiplications and pairing products
// (internal/bn254, internal/batch, internal/groth16), PoQoEA proving and
// batch verification (internal/poqoea), ciphertext decoding
// (internal/batch), requester decryption (internal/protocol), the QAP
// quotient and its NTT kernels (internal/qap, internal/ff), optimistic
// round execution (internal/chain), and the per-round off-chain worker
// computation of the marketplace harness (internal/market).
//
// The engine makes three guarantees that the callers rely on:
//
//   - deterministic results: outputs are indexed by input position and errors
//     are reported for the lowest failing index, so a parallel run is
//     byte-for-byte identical to a sequential one regardless of scheduling;
//   - bounded workers: no call ever starts more than the requested number of
//     goroutines (default runtime.GOMAXPROCS(0));
//   - clean failure: context cancellation stops new work promptly, and a
//     panic in any item is re-raised on the calling goroutine after all
//     workers have drained, never leaked to a bare goroutine.
//
// The bound is per call, not process-wide: nested fan-outs (an MSM
// chunking inside a prover fork) can transiently exceed GOMAXPROCS
// goroutines. That
// is deliberate — items are coarse (scalar multiplications at minimum), the
// runtime still multiplexes onto GOMAXPROCS threads, and a shared token
// budget across nesting levels would risk deadlock for little gain.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: a positive request is honored
// as-is, anything else falls back to runtime.GOMAXPROCS(0) (NumCPU unless
// the process sets it).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// capturedPanic carries a worker panic back to the calling goroutine.
type capturedPanic struct {
	index int
	value any
}

// For runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines and blocks until all scheduled items finish. Items are handed
// out by an atomic counter, so heavy and light items interleave without
// static partitioning skew.
//
// If any fn returns an error, For returns the error of the lowest failing
// index (deterministically, even though execution order is not). If ctx is
// cancelled, no new items start and For returns ctx.Err() unless an item
// error takes precedence. If an fn panics, For re-panics on the caller's
// goroutine after all workers have stopped.
func For(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		return forSequential(ctx, n, fn)
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex // guards firstErr/errIndex (error paths only)
		firstErr error
		errIndex = n
		panicked atomic.Pointer[capturedPanic]
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < errIndex {
			firstErr, errIndex = err, i
		}
		mu.Unlock()
	}
	work := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if ctx != nil && ctx.Err() != nil {
				return
			}
			if panicked.Load() != nil {
				return
			}
			err, pv := runItem(fn, i)
			if pv != nil {
				for {
					cur := panicked.Load()
					if cur != nil && cur.index <= pv.index {
						break
					}
					if panicked.CompareAndSwap(cur, pv) {
						break
					}
				}
				return
			}
			if err != nil {
				record(i, err)
			}
		}
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go work()
	}
	wg.Wait()

	if pv := panicked.Load(); pv != nil {
		panic(fmt.Sprintf("parallel: item %d panicked: %v", pv.index, pv.value))
	}
	if firstErr != nil {
		return firstErr
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// runItem executes one item, converting a panic into a capturedPanic so the
// worker goroutine can unwind cleanly.
func runItem(fn func(int) error, i int) (err error, pv *capturedPanic) {
	defer func() {
		if r := recover(); r != nil {
			pv = &capturedPanic{index: i, value: r}
		}
	}()
	return fn(i), nil
}

// forSequential is the workers<=1 fast path: no goroutines, natural panic
// propagation, early exit on the first error or cancellation.
func forSequential(ctx context.Context, n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines and returns the results in input order. Error, cancellation and
// panic semantics match For.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := For(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Do runs the given heterogeneous tasks concurrently on the default pool
// (so GOMAXPROCS=1 makes it fully sequential) and returns the error
// of the lowest-indexed failing task. It is the fork/join primitive for
// fixed small fan-outs, e.g. the three NTT chains of the QAP quotient or
// the independent MSMs of the Groth16 prover.
func Do(tasks ...func() error) error {
	return For(context.Background(), len(tasks), 0, func(i int) error {
		return tasks[i]()
	})
}

// ForSpans runs fn(start, end) over Chunks' spans of [0, n) on the pool, one
// work unit per span, so dispatch is paid per span rather than per element.
// It returns the error of the lowest failing span; a span that stops at its
// first failing element therefore reports the lowest failing index overall,
// as a sequential scan would. Cancellation and panics behave as in For.
func ForSpans(ctx context.Context, n, workers int, fn func(start, end int) error) error {
	_, err := MapSpans(ctx, n, workers, func(start, end int) (struct{}, error) {
		return struct{}{}, fn(start, end)
	})
	return err
}

// MapSpans is ForSpans returning each span's result in span order — e.g. the
// partial sums of a chunked multi-scalar multiplication, which combined in
// that order equal the sequential sum.
func MapSpans[T any](ctx context.Context, n, workers int, fn func(start, end int) (T, error)) ([]T, error) {
	var spans [][2]int
	Chunks(n, workers, func(_, start, end int) {
		spans = append(spans, [2]int{start, end})
	})
	return Map(ctx, len(spans), len(spans), func(c int) (T, error) {
		return fn(spans[c][0], spans[c][1])
	})
}

// Chunks splits [0, n) into at most Workers(workers) contiguous spans of
// near-equal size and reports them through span, in order, on the calling
// goroutine: it partitions work but runs nothing concurrently (ForSpans and
// MapSpans run the spans on the pool). span receives (chunk index, start,
// end); the return value is the number of spans.
func Chunks(n, workers int, span func(c, start, end int)) int {
	if n <= 0 {
		return 0
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	size := (n + w - 1) / w
	c := 0
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		span(c, start, end)
		c++
	}
	return c
}
