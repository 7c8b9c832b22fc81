// Command perfbench is the repository's end-to-end benchmark: a
// researcher's batch replay, an operator's live alerting feed, point
// lookups and analytics scans, all served by three prefix-split shard
// stores behind a bhroute-style router, in one process. See README.md
// for the workloads, metrics and how to run it.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	workload := flags.String("workload", "operator", "workload: researcher or operator")
	seed := flags.Int64("seed", 1, "seed for every request stream")
	worldSeed := flags.Int64("world-seed", defaultWorldSeed, "Options.Seed of the measured world")
	seconds := flags.Float64("seconds", 12, "measured seconds of each of the workload's focus phases")
	trace := flags.Int("trace", 0, "1 runs the traced, layer-attributed pass")
	root := flags.String("root", ".", "repository root, for provenance")
	workdir := flags.String("workdir", ".bench_build", "directory for stores and trace files")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if workloads[*workload] == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload researcher|operator, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := defaultConfig(*workload, *seed, *seconds)
	cfg.opts.Seed = *worldSeed
	cfg.root, cfg.workdir = *root, *workdir
	res, err := bench(context.Background(), cfg, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs the timed pass, or with traced the untraced and traced
// passes plus the ladder, prints the human-readable report and returns
// the result line.
func bench(ctx context.Context, cfg *config, traced bool, out io.Writer) (*result, error) {
	if !traced {
		s, err := runSession(ctx, cfg, false)
		if err != nil {
			return nil, err
		}
		printProvenance(out, cfg, s, false)
		s.rep.print(out, "e2e")
		s.tails.print(out, "tail")
		printFailures(out, s)
		return newResult(s.rep, s.attempted, s.failed), nil
	}
	// Set-up time is reported by the timed pass only, and each traced
	// pass runs half as long, to keep both within a few minutes.
	cfg.setupReps = 1
	cfg.seconds /= 2
	plain, err := runSession(ctx, cfg, false)
	if err != nil {
		return nil, err
	}
	s, err := runSession(ctx, cfg, true)
	if err != nil {
		return nil, err
	}
	if s.replay.digest != plain.replay.digest {
		s.fail(int64(s.replay.updates), "traced replay: event digest differs from the untraced run")
	}
	for _, m := range plain.rep.metrics {
		if m.Name == "setup_s" || m.Name == "retained_heap_mb" {
			continue
		}
		t, _ := s.rep.get(m.Name)
		s.layers.put("overhead."+m.Name, ratio(t.Value, m.Value), "ratio", 1, m.Name+" (traced / untraced)")
	}
	if err := os.MkdirAll(filepath.Join(cfg.workdir, "traces"), 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.ndjson", cfg.workload, cfg.seed))
	if err := writeSpans(path, s.spans); err != nil {
		return nil, err
	}
	printProvenance(out, cfg, s, true)
	fmt.Fprintf(out, "spans     %d written to %s\n", len(s.spans), path)
	fmt.Fprintf(out, "digest    replay events untraced %x traced %x\n", plain.replay.digest[:8], s.replay.digest[:8])
	plain.rep.print(out, "e2e")
	plain.tails.print(out, "tail")
	s.rep.print(out, "e2e-trace")
	s.tails.print(out, "tail-trace")
	s.layers.print(out, "layer")
	printFailures(out, plain)
	printFailures(out, s)
	return newResult(s.layers, plain.attempted+s.attempted, plain.failed+s.failed), nil
}

// newResult builds the result line from a report. A metric without
// samples (NaN) cannot be printed as a number; it is reported as 0 and
// fails the run.
func newResult(r *report, attempted, failed int64) *result {
	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	correct := true
	for _, m := range r.metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			correct = false
		}
		res.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	res.Correct = correct && failed == 0
	return res
}

func printFailures(out io.Writer, s *session) {
	for _, f := range s.failures {
		fmt.Fprintln(out, "FAILED   ", f)
	}
}

// printProvenance prints what a result depends on as one JSON line.
func printProvenance(out io.Writer, cfg *config, s *session, traced bool) {
	prov := map[string]any{
		"workload":      cfg.workload,
		"traced":        traced,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"cpus":          runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest(cfg.root),
		"options":       cfg.opts,
		"shard_plan":    plan.String(),
		"sync_policy":   syncPolicy,
		"setup_reps":    cfg.setupReps,
		"other_phase_s": cfg.seconds * cfg.otherFrac,
		"rates": map[string]any{
			"point_clients":        cfg.pointClients,
			"analytics_clients":    1,
			"live_updates_per_s":   cfg.liveRate,
			"live_reads_per_s":     cfg.readRate,
			"live_watch_clients":   1,
			"live_reader_conns":    1,
			"replay_hub_rules":     len(benchRuleSpecs()),
			"live_hub_rules":       len(benchRuleSpecs()) + 1,
			"warmup_replay_days":   cfg.warmDays,
			"live_window_from_day": cfg.liveFromDay(),
		},
	}
	for k, v := range s.prov {
		prov[k] = v
	}
	line, _ := json.Marshal(prov)
	fmt.Fprintf(out, "provenance %s\n", line)
}

// commit is the git revision the binary was built from, when the build
// saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the repository's Go sources and module files, so
// a result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
