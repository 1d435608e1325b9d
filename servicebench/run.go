package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"dragoon/internal/service"
)

// phase is what one measured phase of the closed loop produced.
type phase struct {
	settled   []settlement
	steps     int
	wall      time.Duration
	cpu       time.Duration
	questions int
	heapBytes uint64
}

// failed counts the settled tasks whose output check failed.
func (p *phase) failed() int {
	n := 0
	for _, s := range p.settled {
		if s.err != nil {
			n++
		}
	}
	return n
}

// session is one workload set up on one system: generator, closed loop and
// the warm-up already run.
type session struct {
	w      workload
	loop   *loop
	sys    stepper
	warmup []settlement
}

// newSystem builds what the loop drives: the streaming service
// (startService) or the traced replay of its round (startReplay).
type newSystem func(w workload, gen *generator, seed int64) (stepper, error)

func startService(w workload, gen *generator, seed int64) (stepper, error) {
	cfg, err := serviceConfig(w, gen, seed)
	if err != nil {
		return nil, err
	}
	return service.New(cfg)
}

// setUp builds the system and runs the warm-up: warmupRounds rounds whose
// first admissions are spread over a task's life — at most ceil(C /
// taskRounds) per round — so the steady state has tasks in every phase
// rather than C tasks moving in lockstep. The warm-up also builds every
// lazily-built table the measured phase uses.
func setUp(ctx context.Context, w workload, seed int64, mk newSystem) (*session, error) {
	gen := newGenerator(w, seed)
	sys, err := mk(w, gen, seed)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, loop: newLoop(w, gen, sys), sys: sys}
	admit := (w.inflight + taskRounds - 1) / taskRounds
	for i := 0; i < warmupRounds; i++ {
		done, err := s.loop.step(ctx, admit)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		s.warmup = append(s.warmup, done...)
	}
	return s, nil
}

// taskRounds is the life of a task in rounds from admission to settlement
// (settle_rounds): the same in every workload, since the contract's commit,
// reveal and evaluation windows do not depend on the task's size.
const taskRounds = 9

// warmupRounds is three task lives: one to ramp the C tasks in, two at
// steady state. With per-task keys that admits 3C tasks, enough to fill the
// 64-entry fixed-base table registry before timing starts.
const warmupRounds = 3 * taskRounds

// measure runs the closed loop until the deadline passes (or, with steps >
// 0, for exactly that many rounds) and collects what settled.
func (s *session) measure(ctx context.Context, seconds float64, steps int) (*phase, error) {
	p := &phase{}
	deadline := time.Duration(seconds * float64(time.Second))
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for {
		done, err := s.loop.step(ctx, s.w.inflight)
		if err != nil {
			return nil, fmt.Errorf("round %d of the measured phase: %w", p.steps, err)
		}
		p.steps++
		p.settled = append(p.settled, done...)
		if steps > 0 && p.steps >= steps || steps <= 0 && time.Since(start) >= deadline {
			break
		}
	}
	p.wall = time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	p.questions = len(p.settled) * s.w.n
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapBytes = ms.HeapAlloc
	return p, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading CPU time: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
