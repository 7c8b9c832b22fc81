package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	bh "bgpblackholing"
)

// replayPass is the outcome of one full-timeline replay into a set of
// shard stores and an alert hub.
type replayPass struct {
	res     *bh.RunResult
	updates uint64
	elapsed time.Duration // Run start until both sinks drained
	digest  [32]byte

	// Traced passes only.
	src       *timedSource
	runSpan   time.Duration // Run call
	drain     time.Duration // Run return until both sinks drained
	appends   samples       // Store.Append latencies, µs
	appendSum time.Duration // in Append and the final Sync
	fsyncs    int64         // segment fsyncs, group commits included
	rt0, rt1  []metrics.Sample
}

// runtimeNames are the runtime/metrics the traced replay reads.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtDelta(a, b []metrics.Sample, i int) float64 {
	val := func(s metrics.Sample) float64 {
		if s.Value.Kind() == metrics.KindUint64 {
			return float64(s.Value.Uint64())
		}
		if s.Value.Kind() == metrics.KindFloat64 {
			return s.Value.Float64()
		}
		return 0
	}
	return val(b[i]) - val(a[i])
}

// newReplayHub builds the replay's alert hub: the 100-rule set with the
// pipeline's annotator, as a server would run it.
func newReplayHub(p *bh.Pipeline) (*bh.AlertHub, error) {
	rules, err := parseRules()
	if err != nil {
		return nil, err
	}
	return bh.NewAlertHub(rules, bh.AlertHubConfig{Annotator: p.Annotator()})
}

// replayOnce runs Detector.Run over the full timeline, sinking to the
// shard stores and to an alert hub; the clock stops when both sinks
// have drained. The traced form wraps the ReplaySource, which hides it
// from Run, so it passes the window end as the flush time and closes
// the source itself; it also replaces SinkToShards and SinkToHub with
// timed sinks of its own on Detector.Subscribe.
func replayOnce(ctx context.Context, p *bh.Pipeline, stores []*bh.Store, traced bool) (*replayPass, error) {
	hub, err := newReplayHub(p)
	if err != nil {
		return nil, err
	}
	defer hub.Close()
	det := p.NewDetector()
	out := &replayPass{}
	if !traced {
		waitShards := det.SinkToShards(plan, stores)
		waitHub := det.SinkToHub(hub)
		start := time.Now()
		res, err := det.Run(ctx, p.Replay(0, p.Opts.Days))
		sinkErr := waitShards()
		waitHub()
		out.elapsed = time.Since(start)
		if err := errors.Join(err, sinkErr); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		out.res = res
	} else {
		shardCh, hubCh := det.Subscribe(), det.Subscribe()
		shardDone := make(chan error, 1)
		go func() {
			var err error
			for ev := range shardCh {
				if err != nil {
					continue
				}
				t0 := time.Now()
				err = stores[plan.Shard(ev)].Append(ev)
				d := time.Since(t0)
				out.appends.addDur(d, time.Microsecond)
				out.appendSum += d
			}
			for _, st := range stores {
				if err == nil {
					t0 := time.Now()
					err = st.Sync()
					out.appendSum += time.Since(t0)
				}
			}
			shardDone <- err
		}()
		hubDone := make(chan struct{})
		go func() {
			defer close(hubDone)
			for ev := range hubCh {
				hub.Publish(ev)
			}
		}()
		rs := p.Replay(0, p.Opts.Days)
		out.src = &timedSource{src: rs}
		out.rt0 = readRuntime()
		start := time.Now()
		res, err := det.Run(ctx, out.src, bh.WithFlushAt(rs.WindowEnd()))
		out.runSpan = time.Since(start)
		closeErr := rs.Close()
		sinkErr := <-shardDone
		<-hubDone
		out.elapsed = time.Since(start)
		out.drain = out.elapsed - out.runSpan
		out.rt1 = readRuntime()
		if err := errors.Join(err, closeErr, sinkErr); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		out.res = res
	}
	out.updates = out.res.Metrics.UpdatesProcessed
	var err2 error
	out.digest, err2 = eventDigest(out.res.Events)
	return out, err2
}

// eventDigest hashes the wire records of events in order.
func eventDigest(events []*bh.Event) ([32]byte, error) {
	h := sha256.New()
	for _, ev := range events {
		b, err := json.Marshal(bh.NewEventRecord(ev))
		if err != nil {
			return [32]byte{}, err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}

// runReplay is the replay phase: passes into throw-away stores, then
// the pass into the read world's stores, which the point and analytics
// phases query. The metric is the median pass.
func (s *session) runReplay(ctx context.Context) error {
	passes := replayPasses
	if s.cfg.focus("replay") {
		passes = replayFocusPasses
	}
	var rates samples
	var first [32]byte
	for pass := 0; ; pass++ {
		final := pass == passes-1
		stores := s.w.read.stores
		var dir string
		if !final {
			var err error
			if dir, err = os.MkdirTemp(s.w.dir, "replay-"); err != nil {
				return err
			}
			if stores, err = openStores(dir, plan.N, nil); err != nil {
				return err
			}
		}
		fsyncs := s.fsyncs()
		runtime.GC()
		out, err := replayOnce(ctx, s.w.p, stores, s.tr != nil)
		if !final {
			err = errors.Join(err, closeStores(stores), os.RemoveAll(dir))
		}
		if err != nil {
			return err
		}
		out.fsyncs = s.fsyncs() - fsyncs
		s.attempted += int64(out.updates)
		if pass == 0 {
			first = out.digest
		} else if out.digest != first {
			s.fail(int64(out.updates), "replay pass %d: event digest differs from pass 0", pass)
		}
		rates.add(float64(out.updates) / out.elapsed.Seconds())
		if final {
			s.replay = out
			break
		}
	}
	s.rep.put("replay_updates_per_s", rates.median(), "updates/s", len(rates), "")
	s.prov["updates"] = s.replay.updates
	s.prov["events"] = len(s.replay.res.Events)
	return nil
}

// replayLayers reports the traced replay's per-layer metrics.
func (s *session) replayLayers() {
	o := s.replay
	const moves = "replay_updates_per_s (replay)"
	n := float64(o.updates)
	s.layers.put("source.elems", float64(o.src.elems), "count", 1, moves)
	s.layers.put("source.wait_s", o.src.wait.Seconds(), "s", 1, moves)
	s.layers.put("source.wait_frac", ratio(o.src.wait.Seconds(), o.runSpan.Seconds()), "ratio", 1, moves)
	busy := o.runSpan - o.src.wait
	// core.busy_s excludes the ordinary-churn observation Run makes for a
	// bare ReplaySource (it feeds only InferStats): the traced source
	// hides the ReplaySource, so Run skips it.
	s.layers.put("core.busy_s", busy.Seconds(), "s", 1, moves)
	s.layers.put("core.ns_per_update", ratio(float64(busy.Nanoseconds()), n), "ns", int(o.updates), moves)
	s.layers.put("core.events_closed", float64(o.res.Metrics.EventsClosed), "count", 1, moves)
	s.layers.put("runtime.alloc_bytes_per_update", ratio(rtDelta(o.rt0, o.rt1, 0), n), "B", 1, moves)
	s.layers.put("runtime.allocs_per_update", ratio(rtDelta(o.rt0, o.rt1, 1), n), "count", 1, moves)
	s.layers.put("runtime.gc_cpu_frac", ratio(rtDelta(o.rt0, o.rt1, 2), rtDelta(o.rt0, o.rt1, 3)), "ratio", 1, moves)
	const storeMoves = "replay_updates_per_s (replay), live_read_p50_ms and its p99 tail (live)"
	s.layers.put("store.append_calls", float64(len(o.appends)), "count", 1, storeMoves)
	s.layers.put("store.append_busy_s", o.appendSum.Seconds(), "s", 1, storeMoves)
	s.layers.put("store.append_p99_us", o.appends.quantile(0.99), "us", len(o.appends), storeMoves)
	s.layers.put("store.sync_calls", float64(o.fsyncs), "count", 1, storeMoves)
	var bytes, events float64
	for _, st := range s.w.read.stores {
		stats := st.Stats()
		bytes += float64(stats.Bytes)
		events += float64(stats.Events)
	}
	s.layers.put("store.bytes_per_event", ratio(bytes, events), "B", int(events), storeMoves)
	s.layers.put("store.sink_drain_s", o.drain.Seconds(), "s", 1, storeMoves)
}

// checkReplay compares the federated NDJSON scan through the router
// with the same scan of a single store holding res.Events.
func (s *session) checkReplay(ctx context.Context, ref *reference) error {
	got, status, failedShards, err := fetch(ctx, s.client, s.w.read.router.URL+"/events?format=ndjson")
	if err != nil {
		return err
	}
	want, _ := ref.body("/events?format=ndjson")
	if status != 200 || failedShards || string(got) != string(want) {
		bad := diffLines(got, want)
		s.fail(max(1, int64(bad)), "replay: federated scan differs from the single store (status %d, %d lines differ)", status, bad)
	}
	return nil
}
