package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	bh "bgpblackholing"
)

// syncPolicy is the group-commit policy every shard store uses:
// count-triggered, so it fires repeatedly within every phase.
const syncPolicy = "group,every=64"

// plan splits events over the shards by prefix.
var plan = bh.PrefixShardPlan{Bit: 8, N: 3}

// benchRuleSpecs is the 100-rule alert set the repository's alerting
// benchmarks use: watched customer blocks, point lookups, per-origin and
// per-community watches, duration floors and verdict conditions.
func benchRuleSpecs() []string {
	var specs []string
	for i := 0; i < 40; i++ {
		specs = append(specs, fmt.Sprintf("name=net%d prefix=%d.%d.0.0/16 mode=covered", i, 10+20*(i%2), i))
	}
	for i := 0; i < 20; i++ {
		specs = append(specs, fmt.Sprintf("name=host%d prefix=10.%d.7.%d/32 mode=exact", i, i, i+1))
	}
	for i := 0; i < 15; i++ {
		specs = append(specs, fmt.Sprintf("name=lpm%d prefix=31.0.%d.%d mode=lpm", i, i, i+1))
	}
	for i := 0; i < 10; i++ {
		specs = append(specs, fmt.Sprintf("name=asn%d origin=%d", i, 64500+i))
	}
	for i := 0; i < 5; i++ {
		specs = append(specs, fmt.Sprintf("name=comm%d community=%d:666", i, 64500+i))
	}
	for i := 0; i < 5; i++ {
		specs = append(specs, fmt.Sprintf("name=dur%d min-duration=%dm", i, 10*(i+1)))
	}
	for i := 0; i < 5; i++ {
		specs = append(specs, fmt.Sprintf("name=verdict%d verdict=illegitimate,questionable", i))
	}
	return specs
}

// catchAll is the live hub's extra rule: every event fires it, so every
// event an update closes raises exactly one alert on /watch?rule=catchall.
const catchAll = "name=catchall prefix=0.0.0.0/0,::/0 mode=covered"

func parseRules(extra ...string) ([]bh.AlertRule, error) {
	specs := append(benchRuleSpecs(), extra...)
	rules := make([]bh.AlertRule, len(specs))
	for i, s := range specs {
		r, err := bh.ParseRule(s)
		if err != nil {
			return nil, fmt.Errorf("rule %q: %w", s, err)
		}
		rules[i] = r
	}
	return rules, nil
}

// shardWorld is one federation: shard stores, a loopback store server
// per shard and a bhroute-style router over RemoteBackends.
type shardWorld struct {
	dir     string
	stores  []*bh.Store
	shards  []*httptest.Server
	router  *httptest.Server
	hub     *bh.AlertHub // served by shard 0 (live world only)
	det     *bh.Detector // the live detector, for shard 0's /stats
	backend *http.Transport
}

// openStores opens n fresh shard stores under dir.
func openStores(dir string, n int, tr *tracer) ([]*bh.Store, error) {
	pol, err := bh.ParseSyncPolicy(syncPolicy)
	if err != nil {
		return nil, err
	}
	opts := bh.StoreOptions{Sync: pol}
	if tr != nil {
		opts.OpenSegment = tr.openSegment
	}
	var stores []*bh.Store
	for i := 0; i < n; i++ {
		st, err := bh.OpenStoreWith(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), opts)
		if err != nil {
			closeStores(stores)
			return nil, err
		}
		stores = append(stores, st)
	}
	return stores, nil
}

func closeStores(stores []*bh.Store) error {
	var errs []error
	for _, st := range stores {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}

// wrapFunc lets tests inject faults into a shard's handler.
type wrapFunc func(shard int, h http.Handler) http.Handler

// serve starts the shard servers and the router over stores.
func serve(p *bh.Pipeline, dir string, stores []*bh.Store, hub *bh.AlertHub, det *bh.Detector, tr *tracer, wrap wrapFunc) (*shardWorld, error) {
	w := &shardWorld{dir: dir, stores: stores, hub: hub, det: det}
	w.backend = http.DefaultTransport.(*http.Transport).Clone()
	w.backend.MaxIdleConnsPerHost = 8
	var rt http.RoundTripper = w.backend
	if tr != nil {
		rt = transport{base: w.backend, t: tr}
	}
	client := &http.Client{Transport: rt}
	var backends []bh.Backend
	for i, st := range stores {
		opts := bh.HandlerOptions{}
		if i == 0 && hub != nil {
			opts.Hub, opts.Detector = hub, det
		}
		h := bh.NewStoreHandlerWith(st, p, opts)
		if tr != nil {
			h = tr.wrapShard(i, h)
		}
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(h)
		w.shards = append(w.shards, srv)
		if tr != nil {
			u, _ := url.Parse(srv.URL)
			tr.mu.Lock()
			tr.hosts[u.Host] = i
			tr.mu.Unlock()
		}
		rb, err := bh.NewRemoteBackend([]string{srv.URL}, bh.RemoteOptions{Name: fmt.Sprintf("shard%d", i), Client: client})
		if err != nil {
			w.stop()
			return nil, err
		}
		var b bh.Backend = rb
		if tr != nil {
			b = tracedBackend{Backend: rb, t: tr, shard: i}
		}
		backends = append(backends, b)
	}
	rh := bh.NewRouterHandler(bh.NewFederatedStore(backends...), bh.RouterOptions{})
	if tr != nil {
		rh = tr.wrapRouter(rh)
	}
	w.router = httptest.NewServer(rh)
	return w, nil
}

// stop shuts the servers and the hub down.
func (w *shardWorld) stop() {
	if w.router != nil {
		w.router.Close()
	}
	if w.hub != nil {
		w.hub.Close()
	}
	for _, s := range w.shards {
		s.Close()
	}
	w.backend.CloseIdleConnections()
}

// close stops the servers and hub, closes the stores and removes the
// store files.
func (w *shardWorld) close() error {
	w.stop()
	return errors.Join(closeStores(w.stores), os.RemoveAll(w.dir))
}

// world is everything set-up builds: the pipeline, the live element
// list and the two federations (the read world the replay fills, and
// the live world).
type world struct {
	dir   string // the run directory holding every store
	p     *bh.Pipeline
	elems []*bh.Elem
	read  *shardWorld
	live  *shardWorld
}

func (w *world) close() error {
	var errs []error
	if w.read != nil {
		errs = append(errs, w.read.close())
	}
	if w.live != nil {
		errs = append(errs, w.live.close())
	}
	errs = append(errs, os.RemoveAll(w.dir))
	return errors.Join(errs...)
}

// setup builds a world: the pipeline at the configured shape, a warm-up
// replay (so lazy topology caches are filled before timing), the live
// element list drained from a replay window, and both federations with
// their servers.
func setup(ctx context.Context, cfg *config, dir string, tr *tracer) (*world, error) {
	p, err := bh.NewPipeline(cfg.opts)
	if err != nil {
		return nil, err
	}
	w := &world{dir: dir, p: p}
	if cfg.warmDays > 0 {
		if _, err := p.NewDetector().Run(ctx, p.Replay(0, cfg.warmDays)); err != nil {
			return nil, fmt.Errorf("warm-up replay: %w", err)
		}
	}
	if w.elems, err = drain(p, cfg.liveFromDay(), cfg.opts.Days, cfg.liveElems()); err != nil {
		return nil, err
	}
	readStores, err := openStores(filepath.Join(dir, "read"), plan.N, tr)
	if err != nil {
		return nil, err
	}
	if w.read, err = serve(p, filepath.Join(dir, "read"), readStores, nil, nil, tr, cfg.wrap); err != nil {
		closeStores(readStores)
		return nil, err
	}
	rules, err := parseRules(catchAll)
	if err != nil {
		w.close()
		return nil, err
	}
	hub, err := bh.NewAlertHub(rules, bh.AlertHubConfig{Annotator: p.Annotator()})
	if err != nil {
		w.close()
		return nil, err
	}
	liveStores, err := openStores(filepath.Join(dir, "live"), plan.N, tr)
	if err != nil {
		hub.Close()
		w.close()
		return nil, err
	}
	det := p.NewDetector()
	if w.live, err = serve(p, filepath.Join(dir, "live"), liveStores, hub, det, tr, nil); err != nil {
		closeStores(liveStores)
		w.close()
		return nil, err
	}
	return w, nil
}

// drain materializes up to n elements of the replay of days
// [fromDay, toDay).
func drain(p *bh.Pipeline, fromDay, toDay, n int) ([]*bh.Elem, error) {
	src := p.Replay(fromDay, toDay)
	defer src.Close()
	elems := make([]*bh.Elem, 0, n)
	for len(elems) < n {
		el, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("drain live window: %w", err)
		}
		elems = append(elems, el)
	}
	return elems, nil
}

// setupWorld runs set-up reps times and keeps the last world, closing
// the others; it returns the world and every set-up's wall time.
func setupWorld(ctx context.Context, cfg *config, tr *tracer) (*world, samples, error) {
	var times samples
	var w *world
	for i := 0; i < cfg.setupReps; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, nil, err
			}
		}
		dir, err := os.MkdirTemp(cfg.workdir, "run-")
		if err != nil {
			return nil, nil, err
		}
		runtime.GC()
		start := time.Now()
		if w, err = setup(ctx, cfg, dir, tr); err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		times.addDur(time.Since(start), time.Second)
	}
	return w, times, nil
}
