package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	bh "bgpblackholing"
)

// config fixes everything a run does besides its seed-driven inputs.
type config struct {
	workload string
	seed     int64
	seconds  float64
	root     string
	workdir  string

	opts      bh.Options
	warmDays  int     // warm-up replay length, part of set-up
	setupReps int     // set-ups per run; setup_s is their median
	otherFrac float64 // budget of the phases other than the focus, as a share of seconds

	pointClients int     // closed-loop point clients
	liveRate     float64 // live feed, updates/s
	readRate     float64 // live LPM reads through the router, requests/s

	wrap wrapFunc // fault injection into the read world's shard handlers (tests)
}

// workloads maps each workload to the phases it focuses on. The
// result line must carry every end-to-end metric, so every run goes
// through all four phases; a workload is the session of one of the
// paper's two users, and its own phases measure longest.
var workloads = map[string][]string{
	// The §6 researcher: the 850-day batch replay, then range scans.
	"researcher": {"replay", "analytics"},
	// The §10 operator: the live feed with alerts, then point lookups.
	"operator": {"live", "point"},
}

// stretches is how many separate stretches the point and analytics
// phases run in. They alternate, so each samples more of the run's time
// and one slow stretch of a shared machine weighs less.
const stretches = 2

// replayPasses and replayFocusPasses are how many full replays a run
// makes when the replay is not, or is, its focus. They are fixed
// counts, not a time budget: every pass primes the shared annotation
// cache, so the retained heap depends on the pass count.
const replayPasses, replayFocusPasses = 3, 4

// defaultWorldSeed is the world the benchmark measures: SmallOptions'
// own seed. Worlds built from other seeds differ in size by up to 2.5×
// (518k to 1.3M replayed updates over seeds 1–5), which would swamp
// run-to-run comparisons, so --seed varies the request streams and
// --world-seed, recorded in the provenance, picks the world.
const defaultWorldSeed = 42

func defaultConfig(workload string, seed int64, seconds float64) *config {
	opts := bh.SmallOptions()
	opts.Seed = defaultWorldSeed
	return &config{
		workload:     workload,
		seed:         seed,
		seconds:      seconds,
		opts:         opts,
		warmDays:     7,
		setupReps:    3,
		otherFrac:    0.75,
		pointClients: 2,
		liveRate:     20000,
		readRate:     200,
	}
}

func (c *config) focus(phase string) bool {
	return slices.Contains(workloads[c.workload], phase)
}

// budget is how long a phase measures: a focus phase gets the run's
// seconds, every other phase a fixed share of them.
func (c *config) budget(phase string) time.Duration {
	s := c.seconds
	if !c.focus(phase) {
		s *= c.otherFrac
	}
	return time.Duration(s * float64(time.Second))
}

// warmup is how long the point, analytics and live phases run before
// their measurement starts, so connections, caches and fresh live
// stores settle off the clock. Answers in the warm-up are still
// checked.
func (c *config) warmup() time.Duration {
	return min(500*time.Millisecond, c.budget("")/4)
}

// liveElems is how many updates the live feed publishes.
func (c *config) liveElems() int {
	return int(c.liveRate*(c.warmup()+c.budget("live")).Seconds()) + 1
}

// liveFromDay is the first day of the replay window the live element
// list is drained from; the window ends at the timeline's end unless
// the list fills first.
func (c *config) liveFromDay() int {
	return max(0, c.opts.Days-c.liveElems()/1000-5)
}

// session is one set-up and one pass over every phase — live, replay,
// then point and analytics in alternating stretches — followed by the
// correctness checks.
type session struct {
	cfg    *config
	tr     *tracer // nil for the timed (untraced) pass
	w      *world
	client *http.Client // the point and analytics clients

	rep    *report // end-to-end metrics
	tails  *report // p99 latencies: printed, not gated (see README)
	layers *report // per-layer metrics (traced pass)
	prov   map[string]any

	attempted, failed int64
	failures          []string

	replay    *replayPass
	point     *pointRun
	analytics *analyticsRun
	live      *liveRun
	spans     []span
}

// fail counts n failed operations and keeps a description.
func (s *session) fail(n int64, format string, args ...any) {
	s.failed += n
	if len(s.failures) < 20 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

func (s *session) fsyncs() int64 {
	if s.tr == nil {
		return 0
	}
	return s.tr.fsyncs.Load()
}

// newClient returns an HTTP client holding at most conns connections
// per host.
func newClient(conns int) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = conns
	t.MaxConnsPerHost = conns
	return &http.Client{Transport: t}
}

func closeClient(c *http.Client) {
	c.Transport.(*http.Transport).CloseIdleConnections()
}

// runSession sets up a world and runs every phase on it.
func runSession(ctx context.Context, cfg *config, traced bool) (s *session, err error) {
	s = &session{cfg: cfg, rep: &report{}, tails: &report{}, layers: &report{}, prov: map[string]any{}}
	if traced {
		s.tr = newTracer()
	}
	w, setupTimes, err := setupWorld(ctx, cfg, s.tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s.w = w
	defer func() { err = errors.Join(err, w.close()) }()
	s.client = newClient(cfg.pointClients)
	defer closeClient(s.client)
	s.rep.put("setup_s", setupTimes.median(), "s", len(setupTimes), "")

	phases := map[string]float64{}
	s.prov["phase_s"] = phases
	for _, ph := range []struct {
		name string
		run  func(context.Context) error
	}{
		{"live_reference", s.prepareLive},
		{"live", s.runLive},
		{"replay", s.runReplay},
		{"point", s.runPoint},
		{"analytics", s.runAnalytics},
		{"point", s.runPoint},
		{"analytics", s.runAnalytics},
	} {
		runtime.GC() // collect earlier garbage off this phase's clock
		start := time.Now()
		if err := ph.run(ctx); err != nil {
			return nil, fmt.Errorf("%s: %w", ph.name, err)
		}
		phases[ph.name] += time.Since(start).Seconds()
	}
	s.reportPoint()
	s.reportAnalytics()
	checks := time.Now()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s.rep.put("retained_heap_mb", float64(mem.HeapAlloc)/1e6, "MB", 1, "")

	ref, err := newReference(s.w.p, filepath.Join(s.w.dir, "reference"), s.replay.res.Events)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, ref.close()) }()
	if err := s.checkReplay(ctx, ref); err != nil {
		return nil, err
	}
	if err := s.checkPoint(ref); err != nil {
		return nil, err
	}
	if err := s.checkAnalytics(ref); err != nil {
		return nil, err
	}
	if err := s.checkLive(); err != nil {
		return nil, err
	}
	phases["checks"] = time.Since(checks).Seconds()
	if traced {
		s.replayLayers()
		s.liveLayers()
		if err := s.ladder(ctx, ref); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		s.spans = append(s.spans, s.tr.take()...)
	}
	s.prov["store_bytes"] = storeBytes(s.w.read.stores) + storeBytes(s.w.live.stores)
	return s, nil
}

func storeBytes(stores []*bh.Store) int64 {
	var n int64
	for _, st := range stores {
		n += st.Stats().Bytes
	}
	return n
}

// reference is a single store holding the replay's events, served
// in-process by the store handler: the answer every federated response
// must equal.
type reference struct {
	st  *bh.Store
	dir string
	h   http.Handler
}

func newReference(p *bh.Pipeline, dir string, events []*bh.Event) (*reference, error) {
	st, err := bh.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	if err := st.Append(events...); err != nil {
		st.Close()
		return nil, err
	}
	return &reference{st: st, dir: dir, h: bh.NewStoreHandler(st, p)}, nil
}

// body answers path in-process.
func (r *reference) body(path string) ([]byte, int) {
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.Bytes(), rec.Code
}

func (r *reference) close() error {
	return errors.Join(r.st.Close(), os.RemoveAll(r.dir))
}

// fetch GETs url and reads the whole body.
func fetch(ctx context.Context, c *http.Client, url string) (body []byte, status int, shardsFailed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, false, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, false, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return body, resp.StatusCode, resp.Header.Get("X-Shards-Failed") != "", err
}

// diffLines counts the lines of a and b that the other lacks.
func diffLines(a, b []byte) int {
	count := map[string]int{}
	for _, l := range bytes.Split(a, []byte{'\n'}) {
		count[string(l)]++
	}
	for _, l := range bytes.Split(b, []byte{'\n'}) {
		count[string(l)]--
	}
	n := 0
	for _, c := range count {
		n += max(c, -c)
	}
	return n
}
