package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metric is one named, unit-carrying figure of the result line.
type metric struct {
	name  string
	unit  string
	value float64
}

// metricName is the charset and length the result line's names must keep.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1) and how
// many samples lie beyond it. A percentile is only worth reporting when at
// least ten samples lie beyond it.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// median is the nearest-rank median.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the result, refusing names outside the charset and
// values JSON cannot carry.
func resultLine(correct bool, attempted, failed int, ms []metric) (string, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(ms))}
	for _, m := range ms {
		if !metricName.MatchString(m.name) {
			return "", fmt.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", m.name)
		}
		if _, dup := r.Metrics[m.name]; dup {
			return "", fmt.Errorf("metric %q reported twice", m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %q has no finite value", m.name)
		}
		r.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(r)
	return string(b), err
}
