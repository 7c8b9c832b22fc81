package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"time"

	bh "bgpblackholing"
)

// liveRun holds the live phase's reference, schedule and observations.
type liveRun struct {
	n       int       // updates published
	flushAt time.Time // passed to both the reference and the live Run
	ref     []*bh.Event
	digest  [32]byte // of ref
	// closeIdx[seq-1] is the index of the published update whose
	// processing closed event seq; events past its end were closed by
	// the final Flush.
	closeIdx []int

	start    time.Time // the feed's schedule origin
	res      *bh.RunResult
	recv     []time.Time // SSE receipt per seq (index seq-1)
	alerts   int
	reads    []liveRead
	lateness samples // generator lateness per update, µs
	dropped  uint64

	// Traced pass only.
	published []time.Time // Hub.Publish return per seq (index seq-1)
	publishes samples     // Hub.Publish latencies, µs
	queueMax  int
	hubStats  bh.AlertHubStats
}

type liveRead struct {
	due          time.Time
	latency      time.Duration // completion minus due time
	status       int
	shardsFailed bool
	body         []byte
}

// closeTracker feeds a fixed element list and records, between Next
// calls, how many events the detector has closed so far: the events
// closed while processing element i are exactly those whose count
// appears before the call that hands out element i+1. This identifies
// each event's closing update from outside the engine.
type closeTracker struct {
	elems    []*bh.Elem
	det      *bh.Detector
	i        int
	closeIdx []int
}

func (t *closeTracker) Next() (*bh.Elem, error) {
	for closed := int(t.det.Metrics().EventsClosed); len(t.closeIdx) < closed; {
		t.closeIdx = append(t.closeIdx, t.i-1)
	}
	if t.i >= len(t.elems) {
		return nil, io.EOF
	}
	el := t.elems[t.i]
	t.i++
	return el, nil
}

// prepareLive runs the batch reference over the live element list: the
// events the live run must reproduce, and each event's closing update.
func (s *session) prepareLive(ctx context.Context) error {
	elems := s.w.elems
	if len(elems) == 0 {
		return errors.New("live: empty element list")
	}
	run := &liveRun{n: len(elems), flushAt: elems[len(elems)-1].Update.Time}
	s.live = run
	det := s.w.p.NewDetector()
	tracker := &closeTracker{elems: elems, det: det}
	res, err := det.Run(ctx, tracker, bh.WithFlushAt(run.flushAt))
	if err != nil {
		return fmt.Errorf("live reference: %w", err)
	}
	run.ref, run.closeIdx = res.Events, tracker.closeIdx
	run.digest, err = eventDigest(res.Events)
	return err
}

func (r *liveRun) due(i int, rate float64) time.Time {
	return r.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// runLive is the live phase: an open-loop feeder publishes the element
// list into a LiveSource at a fixed rate while Detector.Run sinks to
// the live shards and to shard 0's alert hub; one SSE client reads
// /watch and an open-loop reader sends LPM /events requests through the
// router at a fixed rate.
func (s *session) runLive(ctx context.Context) error {
	run, lw, cfg := s.live, s.w.live, s.cfg
	run.recv = make([]time.Time, len(run.ref))

	sseClient := newClient(1)
	defer closeClient(sseClient)
	sseCtx, cancelSSE := context.WithCancel(ctx)
	defer cancelSSE()
	req, err := http.NewRequestWithContext(sseCtx, http.MethodGet, lw.shards[0].URL+"/watch?rule=catchall", nil)
	if err != nil {
		return err
	}
	resp, err := sseClient.Do(req)
	if err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadSlice('\n'); resp.StatusCode != http.StatusOK || err != nil {
		return fmt.Errorf("watch: status %d, %v", resp.StatusCode, err)
	}
	sseDone := make(chan struct{})
	go func() {
		defer close(sseDone)
		for run.alerts < len(run.ref) {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			if !bytes.HasPrefix(line, []byte("data: ")) {
				continue
			}
			now := time.Now()
			if seq := alertSeq(line); seq > 0 && seq <= len(run.recv) && run.recv[seq-1].IsZero() {
				run.recv[seq-1] = now
				run.alerts++
			}
		}
	}()

	det := lw.det
	src := bh.NewLiveSource()
	var waitSinks func() error
	if s.tr == nil {
		waitShards := det.SinkToShards(plan, lw.stores)
		waitHub := det.SinkToHub(lw.hub)
		waitSinks = func() error {
			err := waitShards()
			waitHub()
			return err
		}
	} else {
		waitSinks = s.tracedLiveSinks(det)
	}
	runDone := make(chan error, 1)
	go func() {
		res, err := det.Run(ctx, src, bh.WithFlushAt(run.flushAt))
		run.res = res
		runDone <- err
	}()
	if s.tr != nil {
		stop := s.sampleQueues(det)
		defer stop()
	}

	run.start = time.Now().Add(5 * time.Millisecond)
	feedEnd := run.due(run.n, cfg.liveRate)
	readClient := newClient(1)
	defer closeClient(readClient)
	readsDone := make(chan struct{})
	go func() {
		defer close(readsDone)
		s.liveReads(ctx, readClient, feedEnd)
	}()

	// The feeder: publish every update whose due time has passed, then
	// sleep until the next one is due.
	run.lateness = make(samples, 0, run.n)
	for i := 0; i < run.n; {
		now := time.Now()
		for ; i < run.n && !run.due(i, cfg.liveRate).After(now); i++ {
			run.lateness.addDur(time.Since(run.due(i, cfg.liveRate)), time.Microsecond)
			src.Publish(s.w.elems[i])
		}
		if i < run.n {
			time.Sleep(time.Until(run.due(i, cfg.liveRate)))
		}
	}
	src.Close()
	s.w.elems = nil // the benchmark's input, not the program's state
	runErr := <-runDone
	sinkErr := waitSinks()
	<-readsDone
	select {
	case <-sseDone:
	case <-time.After(10 * time.Second):
		cancelSSE()
		<-sseDone
	}
	if err := errors.Join(runErr, sinkErr); err != nil {
		return err
	}
	run.dropped = src.Dropped()
	run.hubStats = lw.hub.Stats()

	from := run.start.Add(cfg.warmup())
	var lag samples
	for seq, idx := range run.closeIdx {
		if due := run.due(idx, cfg.liveRate); !run.recv[seq].IsZero() && !due.Before(from) {
			lag.addDur(run.recv[seq].Sub(due), time.Millisecond)
		}
	}
	var reads samples
	for _, r := range run.reads {
		if !r.due.Before(from) {
			reads.addDur(r.latency, time.Millisecond)
		}
	}
	s.attempted += int64(run.n) + int64(len(run.reads))
	s.rep.put("live_alert_lag_p50_ms", lag.median(), "ms", len(lag), "")
	s.tails.put("live_alert_lag_p99_ms", lag.quantile(0.99), "ms", len(lag), "")
	s.rep.put("live_read_p50_ms", reads.median(), "ms", len(reads), "")
	s.tails.put("live_read_p99_ms", reads.quantile(0.99), "ms", len(reads), "")
	s.prov["live_updates"] = run.n
	s.prov["live_events"] = len(run.ref)
	s.prov["live_alerts"] = run.alerts
	s.prov["live_lateness_us"] = map[string]float64{
		"p50": run.lateness.median(), "p99": run.lateness.quantile(0.99), "max": run.lateness.max(),
	}
	run.lateness = nil
	if s.tr != nil {
		s.spans = append(s.spans, s.tr.take()...)
	}
	return nil
}

// alertSeq extracts the event's seq from an SSE alert data line.
func alertSeq(line []byte) int {
	i := bytes.Index(line, []byte(`"seq":`))
	if i < 0 {
		return 0
	}
	rest := line[i+len(`"seq":`):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, _ := strconv.Atoi(string(rest[:j]))
	return n
}

// liveReads is the open-loop reader: LPM /events requests through the
// router at readRate, each timed from its due time. Targets are mostly
// the addresses of the events the feed has most recently closed, by
// the reference's closing updates and the feed's schedule.
func (s *session) liveReads(ctx context.Context, c *http.Client, end time.Time) {
	run, cfg := s.live, s.cfg
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x6c697665))
	total := int(end.Sub(run.start).Seconds() * cfg.readRate)
	run.reads = make([]liveRead, total)
	var wg sync.WaitGroup
	for k := 0; k < total; k++ {
		due := run.start.Add(time.Duration(float64(k) / cfg.readRate * float64(time.Second)))
		published := int(float64(k) / cfg.readRate * cfg.liveRate)
		closed := sort.SearchInts(run.closeIdx, published)
		var addr netip.Addr
		switch {
		case closed == 0:
			addr = netip.AddrFrom4([4]byte{240, byte(k >> 16), byte(k >> 8), byte(k)})
		case rng.Float64() < 0.8:
			addr = run.ref[closed-1-rng.IntN(min(closed, 32))].Prefix.Addr()
		default:
			addr = run.ref[rng.IntN(closed)].Prefix.Addr()
		}
		url := s.w.live.router.URL + pointQuery(addr, false).path
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, status, failed, err := fetch(ctx, c, url)
			if err != nil {
				status = 0
			}
			run.reads[k] = liveRead{due: due, latency: time.Since(due), status: status, shardsFailed: failed, body: body}
		}()
	}
	wg.Wait()
}

// tracedLiveSinks replaces SinkToShards and SinkToHub with timed sinks
// on Detector.Subscribe, recording when each event's Publish returned.
func (s *session) tracedLiveSinks(det *bh.Detector) (wait func() error) {
	run, lw := s.live, s.w.live
	run.published = make([]time.Time, len(run.ref))
	shardCh, hubCh := det.Subscribe(), det.Subscribe()
	shardDone := make(chan error, 1)
	go func() {
		var err error
		for ev := range shardCh {
			if err == nil {
				err = lw.stores[plan.Shard(ev)].Append(ev)
			}
		}
		for _, st := range lw.stores {
			err = errors.Join(err, st.Sync())
		}
		shardDone <- err
	}()
	hubDone := make(chan struct{})
	go func() {
		defer close(hubDone)
		for ev := range hubCh {
			t0 := time.Now()
			lw.hub.Publish(ev)
			now := time.Now()
			run.publishes.addDur(now.Sub(t0), time.Microsecond)
			if i := int(ev.Seq) - 1; i >= 0 && i < len(run.published) {
				run.published[i] = now
			}
		}
	}()
	return func() error {
		err := <-shardDone
		<-hubDone
		return err
	}
}

// sampleQueues polls the detector's subscriber queue depths until
// stopped, keeping the maximum.
func (s *session) sampleQueues(det *bh.Detector) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				for _, st := range det.SubscriberStats() {
					s.live.queueMax = max(s.live.queueMax, st.Queued)
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// checkLive compares the live run with the batch reference: the same
// events, no update dropped, an alert for every event, no alert dropped
// at the watcher, and every record a read returned equal to the
// reference record with its seq.
func (s *session) checkLive() error {
	run := s.live
	got, err := eventDigest(run.res.Events)
	if err != nil {
		return err
	}
	if got != run.digest {
		s.fail(int64(max(1, abs(len(run.res.Events)-len(run.ref)))), "live: events differ from the batch reference (%d vs %d)", len(run.res.Events), len(run.ref))
	}
	if run.dropped > 0 {
		s.fail(int64(run.dropped), "live: %d updates dropped by the source", run.dropped)
	}
	if missing := len(run.ref) - run.alerts; missing > 0 {
		s.fail(int64(missing), "live: %d of %d alerts never arrived on /watch", missing, len(run.ref))
	}
	if d := run.hubStats.WatcherDrops; d > 0 {
		s.fail(int64(d), "live: %d alerts dropped by the watcher", d)
	}
	refLines := map[uint64][]byte{}
	bad := 0
	for _, r := range run.reads {
		if r.status != http.StatusOK || r.shardsFailed || !s.readMatches(r.body, refLines) {
			bad++
		}
	}
	if bad > 0 {
		s.fail(int64(bad), "live: %d of %d reads failed or returned records unlike the reference", bad, len(run.reads))
	}
	return nil
}

func (s *session) readMatches(body []byte, refLines map[uint64][]byte) bool {
	var env struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return false
	}
	for _, raw := range env.Events {
		var key struct {
			Seq uint64 `json:"seq"`
		}
		if json.Unmarshal(raw, &key) != nil || key.Seq == 0 || key.Seq > uint64(len(s.live.ref)) {
			return false
		}
		want, ok := refLines[key.Seq]
		if !ok {
			want, _ = json.Marshal(bh.NewEventRecord(s.live.ref[key.Seq-1]))
			refLines[key.Seq] = want
		}
		var got bytes.Buffer
		if json.Compact(&got, raw) != nil || !bytes.Equal(got.Bytes(), want) {
			return false
		}
	}
	return true
}

// liveLayers reports the traced live phase's per-layer metrics.
func (s *session) liveLayers() {
	run := s.live
	const moves = "live_alert_lag_p50_ms and its p99 tail (live)"
	s.layers.put("alert.publish_calls", float64(len(run.publishes)), "count", 1, moves)
	s.layers.put("alert.publish_p99_us", run.publishes.quantile(0.99), "us", len(run.publishes), moves)
	s.layers.put("alert.fire_ratio", ratio(float64(run.hubStats.Alerts), float64(run.hubStats.Published)), "ratio", int(run.hubStats.Published), moves)
	s.layers.put("alert.watch_drops", float64(run.hubStats.WatcherDrops), "count", 1, moves)
	var deliver samples
	for i, t := range run.published {
		if !t.IsZero() && !run.recv[i].IsZero() {
			deliver.addDur(run.recv[i].Sub(t), time.Millisecond)
		}
	}
	s.layers.put("alert.deliver_p50_ms", deliver.median(), "ms", len(deliver), moves)
	s.layers.put("detector.sub_queue_max", float64(run.queueMax), "count", 1, "the live_alert_lag_p99_ms tail (live)")
}

func abs(x int) int { return max(x, -x) }
