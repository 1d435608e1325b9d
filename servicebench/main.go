// Command servicebench is the repository's benchmark: it drives the
// streaming service (internal/service over BN254) through closed-loop
// workloads that each put a different layer on top, checks every task's
// outcome, and prints the end-to-end metrics — or, with --trace 1, the
// per-layer metrics of a traced replay of the service's round. README.md
// explains the workloads, the metrics and how to read them.
//
//	servicebench --workload imagenet_honest --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The exit code is non-zero when any check fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics of the traced replay instead of the end-to-end metrics")
		spans   = flag.String("spans", "", "directory the traced run writes its spans to (none if empty)")
		child   = flag.String("child", "", "internal: run as a measuring (\"measure\") child process")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *name, *seed, *seconds, *trace, *spans, *child); err != nil {
		fmt.Fprintln(os.Stderr, "servicebench:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed int64, seconds float64, trace int, spans, childMode string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	switch childMode {
	case "":
	case childMeasure:
		return child(ctx, w, seed, seconds)
	default:
		return fmt.Errorf("unknown --child mode %q", childMode)
	}
	var o *outcome
	switch trace {
	case 0:
		o, err = endToEnd(ctx, w, seed, seconds)
	case 1:
		o, err = traced(ctx, w, seed, seconds, spans)
	default:
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if err != nil {
		return err
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, m := range o.metrics {
		fmt.Printf("%-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := resultLine(o.correct, o.attempted, o.failed, o.metrics)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !o.correct {
		return fmt.Errorf("%s: %d of %d tasks failed their checks (see above)", w.name, o.failed, o.attempted)
	}
	return nil
}
