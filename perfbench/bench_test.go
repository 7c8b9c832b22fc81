package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
)

// tinyConfig is a small world and short phases, so a whole session
// takes a few seconds.
func tinyConfig(t *testing.T, workload string) *config {
	cfg := defaultConfig(workload, 3, 0.6)
	cfg.opts.Days = 60
	cfg.warmDays = 2
	cfg.setupReps = 1
	cfg.otherFrac = 0.5
	cfg.readRate = 200
	cfg.root = ".."
	cfg.workdir = t.TempDir()
	return cfg
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(res *result) []string {
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, _ := declared(t)
	slices.Sort(endToEnd)
	for wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			res, err := bench(context.Background(), tinyConfig(t, wl), false, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got := metricNames(res); !slices.Equal(got, endToEnd) {
				t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, endToEnd)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 || math.IsNaN(m.Value) {
					t.Errorf("%s = %v, want a positive measurement", name, m.Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	_, perLayer := declared(t)
	slices.Sort(perLayer)
	var out bytes.Buffer
	res, err := bench(context.Background(), tinyConfig(t, "researcher"), true, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, out.String())
	}
	if got := metricNames(res); !slices.Equal(got, perLayer) {
		t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, perLayer)
	}
	if !strings.Contains(out.String(), "-> replay_updates_per_s") {
		t.Errorf("per-layer lines do not name the end-to-end metric they move:\n%s", out.String())
	}
}

// ndjsonFault rewrites shard 1's NDJSON /events bodies with cut.
func ndjsonFault(cut func(body []byte) []byte) wrapFunc {
	return func(shard int, h http.Handler) http.Handler {
		if shard != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/events" || r.URL.Query().Get("format") != "ndjson" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(cut(rec.Body.Bytes()))
		})
	}
}

// A shard that silently loses records must show up as failed
// operations, never as a passing run.
func TestFaultyShardIsCounted(t *testing.T) {
	faults := map[string]func([]byte) []byte{
		"drop-one-line": func(b []byte) []byte {
			lines := bytes.SplitAfter(b, []byte{'\n'})
			if len(lines) < 2 {
				return b
			}
			return bytes.Join(append(lines[:1:1], lines[2:]...), nil)
		},
		"cut-short": func(b []byte) []byte { return b[:len(b)/2] },
	}
	for name, cut := range faults {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, "researcher")
			cfg.wrap = ndjsonFault(cut)
			var out bytes.Buffer
			res, err := bench(context.Background(), cfg, false, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("a faulty shard passed: correct=%v failed=%d\n%s", res.Correct, res.Failed, out.String())
			}
			if !strings.Contains(out.String(), "FAILED") {
				t.Errorf("no failure reported:\n%s", out.String())
			}
		})
	}
}
