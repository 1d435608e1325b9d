package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processes is how many fresh processes one run sets up and measures in.
// Each is timed from its start to the moment it is ready to measure, so
// process and package initialisation and every lazily-built table count;
// each then measures for an equal part of --seconds. On the host this was
// built on, one process of imagenet_honest ran at 675–890 q/s and the next
// at 470–540 q/s throughout (README.md, Host noise): the speed a process
// gets varies more between processes than within one, so a run reports
// medians over several.
const processes = 5

// readyLine is what a child process prints once it is set up.
const readyLine = "ready"

// outcome is what a run reports: its verdict and metrics.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	notes             []string
}

// share is what one measuring process reports to the parent: its own
// verdict and the raw figures of its measured phase.
type share struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Questions int       `json:"questions"`
	WallS     float64   `json:"wall_s"`
	CPUS      float64   `json:"cpu_s"`
	Gas       uint64    `json:"gas"`
	HeapMB    float64   `json:"heap_mb"`
	LatencyMS []float64 `json:"latency_ms"`
	Rounds    []float64 `json:"rounds"`
}

// endToEnd runs the workload in child processes, one after another, each
// measuring for seconds / processes, and reports the metrics a user of the
// service sees.
func endToEnd(ctx context.Context, w workload, seed int64, seconds float64) (*outcome, error) {
	o := &outcome{correct: true}
	var shares []share
	var setups []float64
	for i := 0; i < processes; i++ {
		d, lines, err := runChild(ctx, w, seed, seconds/processes)
		if err != nil {
			return nil, err
		}
		sh, notes, err := parseChild(lines)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		shares = append(shares, sh)
		o.correct = o.correct && sh.Correct
		o.attempted += sh.Attempted
		o.failed += sh.Failed
		for _, n := range notes {
			o.notes = append(o.notes, fmt.Sprintf("process %d: %s", i+1, n))
		}
	}
	var lat []float64
	for _, sh := range shares {
		lat = append(lat, sh.LatencyMS...)
	}
	_, beyond := percentile(lat, 0.9)
	o.metrics = combine(shares, setups)
	o.notes = append(o.notes,
		fmt.Sprintf("settle latency over %d processes: %d samples, %d beyond p90%s", processes, len(lat), beyond, validity(beyond)),
		fmt.Sprintf("set-up samples (s): %s", joinFloats(setups)))
	return o, nil
}

// combine computes a run's end-to-end metrics from its processes' shares
// and set-up times. Rates, CPU and heap are medians over the processes;
// latencies and rounds are percentiles over the tasks of all of them; gas
// is the total over all of them.
func combine(shares []share, setups []float64) []metric {
	var qps, cpu, heap, lat, rounds []float64
	var gas uint64
	questions := 0
	for _, sh := range shares {
		q := float64(sh.Questions)
		qps = append(qps, q/sh.WallS)
		cpu = append(cpu, sh.CPUS*1000/q)
		heap = append(heap, sh.HeapMB)
		lat = append(lat, sh.LatencyMS...)
		rounds = append(rounds, sh.Rounds...)
		gas += sh.Gas
		questions += sh.Questions
	}
	p50, _ := percentile(lat, 0.5)
	p90, _ := percentile(lat, 0.9)
	return []metric{
		{"questions_per_s", "q/s", median(qps)},
		{"cpu_ms_per_question", "ms", median(cpu)},
		{"settle_p50_ms", "ms", p50},
		{"settle_p90_ms", "ms", p90},
		{"settle_rounds", "rounds", median(rounds)},
		{"gas_per_question", "gas", float64(gas) / float64(questions)},
		{"heap_live_mb", "MB", median(heap)},
		{"setup_s", "s", median(setups)},
	}
}

// childMeasure is the --child mode of a measuring child process.
const childMeasure = "measure"

// runChild runs one measuring child process and returns how long it took
// from start to its ready line, and the lines it printed after it.
func runChild(ctx context.Context, w workload, seed int64, seconds float64) (time.Duration, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, fmt.Errorf("child process: %w", err)
	}
	cmd := exec.CommandContext(ctx, exe, "--child", childMeasure, "--workload", w.name,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	// The child must not outlive this process, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, fmt.Errorf("child process: %w", err)
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, fmt.Errorf("child process: %w", err)
	}
	var ready time.Duration
	var lines []string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		switch {
		case ready > 0:
			lines = append(lines, sc.Text())
		case sc.Text() == readyLine:
			ready = time.Since(start)
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("measuring child: %w", err)
	}
	if scanErr != nil {
		return 0, nil, fmt.Errorf("measuring child: reading its output: %w", scanErr)
	}
	if ready == 0 {
		return 0, nil, errors.New("measuring child exited without getting ready")
	}
	return ready, lines, nil
}

// parseChild reads a measuring child's notes and its share, the last line.
func parseChild(lines []string) (share, []string, error) {
	if len(lines) == 0 {
		return share{}, nil, errors.New("measuring child printed no result")
	}
	var sh share
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sh); err != nil {
		return share{}, nil, fmt.Errorf("measuring child's result: %w", err)
	}
	return sh, lines[:len(lines)-1], nil
}

// child is the child-process side of endToEnd: set up, print the ready
// line, run the measured phase, and print its notes and share.
func child(ctx context.Context, w workload, seed int64, seconds float64) error {
	s, err := setUp(ctx, w, seed, startService)
	if err != nil {
		return err
	}
	fmt.Println(readyLine)
	if errs := taskErrors(s.warmup); len(errs) > 0 {
		return fmt.Errorf("warm-up tasks failed their checks:\n%s", strings.Join(errs, "\n"))
	}
	p, err := s.measure(ctx, seconds, 0)
	if err != nil {
		return err
	}
	if len(p.settled) == 0 {
		return fmt.Errorf("no task settled in %.1f s", seconds)
	}
	sh := share{
		Attempted: len(p.settled),
		Failed:    p.failed(),
		Questions: p.questions,
		WallS:     p.wall.Seconds(),
		CPUS:      p.cpu.Seconds(),
		HeapMB:    float64(p.heapBytes) / (1 << 20),
	}
	for _, st := range p.settled {
		sh.LatencyMS = append(sh.LatencyMS, float64(st.latency)/float64(time.Millisecond))
		sh.Rounds = append(sh.Rounds, float64(st.status.SettledRound-st.status.AdmittedRound))
		if st.status.Result != nil {
			sh.Gas += st.status.Result.GasTotal
		}
	}
	fmt.Printf("measured %d rounds in %.2f s: %d tasks, %d questions settled\n", p.steps, p.wall.Seconds(), len(p.settled), p.questions)
	for _, e := range taskErrors(p.settled) {
		fmt.Println(e)
	}
	ledgerErr := s.sys.Ledger().CheckConservation()
	if ledgerErr != nil {
		fmt.Println("FAIL ledger:", ledgerErr)
	}
	sh.Correct = sh.Failed == 0 && ledgerErr == nil
	line, err := json.Marshal(sh)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func validity(beyond int) string {
	if beyond < 10 {
		return " (too few: p90 is not valid)"
	}
	return ""
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// taskErrors lists the failed checks of settled tasks.
func taskErrors(groups ...[]settlement) []string {
	var out []string
	for _, g := range groups {
		for _, s := range g {
			if s.err != nil {
				out = append(out, "FAIL "+s.err.Error())
			}
		}
	}
	return out
}
