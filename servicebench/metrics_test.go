package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestPercentileAndSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, tc := range []struct {
		q      float64
		value  float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
	} {
		v, beyond := percentile(xs, tc.q)
		if v != tc.value || beyond != tc.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", tc.q*100, v, beyond, tc.value, tc.beyond)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	// Below 100 samples, fewer than ten lie beyond p90: it is not valid.
	if _, beyond := percentile(xs[:99], 0.9); beyond >= 10 {
		t.Errorf("99 samples: %d beyond p90, want fewer than 10", beyond)
	}
	if v, beyond := percentile(nil, 0.5); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("no samples: %v, %d; want NaN, 0", v, beyond)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"questions_per_s", "contract.gas_reveal_per_question", "a", "9-lives", strings.Repeat("x", 64)} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/y", "semi;colon", "ünï", strings.Repeat("x", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
		if _, err := resultLine(true, 1, 0, []metric{{bad, "ms", 1}}); err == nil {
			t.Errorf("resultLine accepted metric name %q", bad)
		}
	}
}

func TestResultLine(t *testing.T) {
	line, err := resultLine(true, 3, 1, []metric{{"latency_ms", "ms", 1.25}})
	if err != nil {
		t.Fatal(err)
	}
	var r map[string]any
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("keys %v, want %v", keys, want)
	}
	if _, err := resultLine(true, 1, 0, []metric{{"a", "ms", 1}, {"a", "ms", 2}}); err == nil {
		t.Error("duplicate metric accepted")
	}
	if _, err := resultLine(true, 1, 0, []metric{{"a", "ms", math.NaN()}}); err == nil {
		t.Error("NaN accepted")
	}
}

// declared reads the metric names and units BENCHMARK.json declares in one
// section.
func declared(t *testing.T, section string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(raw, &sections); err != nil {
		t.Fatal(err)
	}
	var list []struct{ Name, Unit string }
	if err := json.Unmarshal(sections[section], &list); err != nil {
		t.Fatalf("BENCHMARK.json %s: %v", section, err)
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func TestEndToEndNamesMatchBenchmarkJSON(t *testing.T) {
	want := declared(t, "end_to_end")
	got := combine([]share{{Questions: 8, WallS: 1, CPUS: 1, LatencyMS: []float64{1}, Rounds: []float64{9}}}, []float64{1})
	if len(got) != len(want) {
		t.Errorf("the benchmark reports %d end-to-end metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, m := range got {
		if unit, ok := want[m.name]; !ok || unit != m.unit {
			t.Errorf("%s [%s] is not declared in BENCHMARK.json (declared unit %q)", m.name, m.unit, unit)
		}
	}
}

// TestCombineTakesMediansOverProcesses: rates and CPU are medians over the
// processes, so one fast process does not move them; latencies are
// percentiles over every process's tasks; gas is per question overall.
func TestCombineTakesMediansOverProcesses(t *testing.T) {
	shares := []share{
		{Questions: 100, WallS: 1, CPUS: 0.2, Gas: 1000, HeapMB: 10, LatencyMS: []float64{1, 2}, Rounds: []float64{9, 9}},
		{Questions: 100, WallS: 2, CPUS: 0.4, Gas: 1000, HeapMB: 12, LatencyMS: []float64{3, 4}, Rounds: []float64{9, 9}},
		{Questions: 300, WallS: 1, CPUS: 0.3, Gas: 3000, HeapMB: 11, LatencyMS: []float64{5}, Rounds: []float64{10}},
	}
	want := map[string]float64{
		"questions_per_s":     100,
		"cpu_ms_per_question": 2,
		"settle_p50_ms":       3,
		"settle_p90_ms":       5,
		"settle_rounds":       9,
		"gas_per_question":    10,
		"heap_live_mb":        11,
		"setup_s":             2,
	}
	for _, m := range combine(shares, []float64{3, 1, 2}) {
		if m.value != want[m.name] {
			t.Errorf("%s = %v, want %v", m.name, m.value, want[m.name])
		}
	}
}

func TestBenchmarkJSONWorkloadsRun(t *testing.T) {
	for n := range declared(t, "workloads") {
		if _, err := findWorkload(n); err != nil {
			t.Error(err)
		}
	}
}

// TestTracedRunIsFaithful runs a short traced run of each workload: the
// replay must settle the same tasks with the same gas, verdicts and rounds
// as the service, and report exactly the per-layer metrics BENCHMARK.json
// declares.
func TestTracedRunIsFaithful(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service and the traced replay")
	}
	want := declared(t, "per_layer")
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o, err := traced(context.Background(), w, 99, 1, "")
			if err != nil {
				t.Fatal(err)
			}
			if !o.correct || o.failed != 0 {
				t.Fatalf("traced run failed its checks:\n%s", strings.Join(o.notes, "\n"))
			}
			if len(o.metrics) != len(want) {
				t.Errorf("the traced run reports %d metrics, BENCHMARK.json declares %d", len(o.metrics), len(want))
			}
			for _, m := range o.metrics {
				if unit, ok := want[m.name]; !ok || unit != m.unit {
					t.Errorf("%s [%s] is not declared in BENCHMARK.json (declared unit %q)", m.name, m.unit, unit)
				}
			}
		})
	}
}
