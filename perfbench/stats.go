package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"
)

// samples is a list of measurements of one quantity.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks, or NaN for an empty list.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := slices.Clone(s)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) max() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return slices.Max(s)
}

// metric is one reported figure: its value, unit and the number of
// samples it summarizes.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	// Moves names the end-to-end metric (and workload) a per-layer
	// metric should move; empty for end-to-end metrics.
	Moves string
}

// report collects the metrics of one run in the order they were
// measured.
type report struct {
	metrics []metric
	byName  map[string]int
}

func (r *report) put(name string, value float64, unit string, n int, moves string) {
	if r.byName == nil {
		r.byName = map[string]int{}
	}
	m := metric{Name: name, Value: value, Unit: unit, N: n, Moves: moves}
	if i, ok := r.byName[name]; ok {
		r.metrics[i] = m
		return
	}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

func (r *report) get(name string) (metric, bool) {
	i, ok := r.byName[name]
	if !ok {
		return metric{}, false
	}
	return r.metrics[i], true
}

func (r *report) print(w io.Writer, kind string) {
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-9s %-34s %16.6f %-10s n=%d", kind, m.Name, m.Value, m.Unit, m.N)
		if m.Moves != "" {
			line += "  -> " + m.Moves
		}
		fmt.Fprintln(w, line)
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
