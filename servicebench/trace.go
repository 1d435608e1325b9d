package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Spans of one task share its ID as the request ID;
// each round has one root span (parent -1) that every other span of the
// round descends from.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Task   string `json:"task,omitempty"`
	// Start and End are nanoseconds since the recorder's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory. The worker pool's goroutines record
// concurrently, hence the lock.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent int, task string) int {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Task: task, Start: now})
	r.mu.Unlock()
	return id
}

// end closes a span.
func (r *recorder) end(id int) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// reset drops the spans recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children of the worker pool run
// concurrently and overlap, so the covered part is the union of the
// children's intervals, never their sum. IDs index the slice.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[i] = s.dur() - unionLength(ivs)
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// profile aggregates a trace by span name.
type profile struct {
	self  map[string]int64 // summed self time
	dur   map[string]int64 // summed duration
	count map[string]int
	// rounds are the root spans' durations in milliseconds; wall is their
	// sum in nanoseconds and rootSelf the part of it no layer span covers.
	rounds         []float64
	wall, rootSelf int64
}

func newProfile(spans []span) *profile {
	p := &profile{self: map[string]int64{}, dur: map[string]int64{}, count: map[string]int{}}
	self := selfTimes(spans)
	for i, s := range spans {
		p.self[s.Name] += self[i]
		p.dur[s.Name] += s.dur()
		p.count[s.Name]++
		if s.Parent < 0 {
			p.rounds = append(p.rounds, float64(s.dur())/1e6)
			p.wall += s.dur()
			p.rootSelf += self[i]
		}
	}
	return p
}

// selfSum is the summed self time of every span with one of the names.
func (p *profile) selfSum(names ...string) int64 {
	var t int64
	for _, n := range names {
		t += p.self[n]
	}
	return t
}

// coverage is the share of round wall time that layer spans account for:
// the union of each root's children over the root's duration.
func (p *profile) coverage() float64 {
	if p.wall == 0 {
		return 0
	}
	return 1 - float64(p.rootSelf)/float64(p.wall)
}
