package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	bh "bgpblackholing"
)

// The traced pass records spans around calls into the program's public
// seams only: the router and shard http.Handlers, a Backend decorator
// around each RemoteBackend, and an http.RoundTripper (with a
// response-body timer) passed through RemoteOptions.Client. A request
// id travels from the benchmark client to the router in reqHeader,
// through the router's context to the backend decorator and transport,
// and on to the shard in reqHeader again, so one request's spans can be
// put back together across layers.

const reqHeader = "X-Bench-Request"

type reqKey struct{}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's start. Transport spans also carry the time the
// response headers arrived (Mark), the time spent blocked in Body.Read
// (Wait) and the body bytes read.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Shard  int    `json:"shard"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Mark   int64  `json:"headers_ns,omitempty"`
	Wait   int64  `json:"body_wait_ns,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// parents is the fixed span hierarchy of a routed request.
var parents = map[string]string{
	"router":    "client",
	"remote":    "router",
	"transport": "remote",
	"shard":     "transport",
}

type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	hosts  map[string]int // shard server host -> shard index
	fsyncs atomic.Int64
	nextID atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), hosts: map[string]int{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	s.Parent = parents[s.Name]
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns and clears the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

func (t *tracer) newRequest(req *http.Request) int64 {
	id := t.nextID.Add(1)
	req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	return id
}

func requestID(r *http.Request) int64 {
	id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	return id
}

// wrapRouter times the router handler and hands the request id to the
// layers below through the request context.
func (t *tracer) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, id)))
		t.add(span{Name: "router", Req: id, Shard: -1, Start: start, End: t.now()})
	})
}

// wrapShard times one shard's store handler.
func (t *tracer) wrapShard(shard int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		start := t.now()
		h.ServeHTTP(w, r)
		if id != 0 {
			t.add(span{Name: "shard", Req: id, Shard: shard, Start: start, End: t.now()})
		}
	})
}

// transport times round trips to the shards and the reads of their
// response bodies.
type transport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt transport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(reqKey{}).(int64)
	tt.t.mu.Lock()
	shard, ok := tt.t.hosts[req.URL.Host]
	tt.t.mu.Unlock()
	if !ok {
		shard = -1
	}
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	start := tt.t.now()
	resp, err := tt.base.RoundTrip(req)
	mark := tt.t.now()
	if err != nil {
		tt.t.add(span{Name: "transport", Req: id, Shard: shard, Start: start, End: mark, Mark: mark})
		return nil, err
	}
	resp.Body = &timedBody{rc: resp.Body, t: tt.t, s: span{Name: "transport", Req: id, Shard: shard, Start: start, Mark: mark}}
	return resp, nil
}

type timedBody struct {
	rc     io.ReadCloser
	t      *tracer
	s      span
	closed bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	start := b.t.now()
	n, err := b.rc.Read(p)
	b.s.Wait += b.t.now() - start
	b.s.Bytes += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.rc.Close()
	if !b.closed {
		b.closed = true
		b.s.End = b.t.now()
		b.t.add(b.s)
	}
	return err
}

// tracedBackend decorates a RemoteBackend with a span per call.
type tracedBackend struct {
	bh.Backend
	t     *tracer
	shard int
}

func (b tracedBackend) record(ctx context.Context, op string, start int64) {
	id, _ := ctx.Value(reqKey{}).(int64)
	b.t.add(span{Name: "remote", Op: op, Req: id, Shard: b.shard, Start: start, End: b.t.now()})
}

func (b tracedBackend) Records(ctx context.Context, q bh.Query) (*bh.RecordSet, error) {
	defer b.record(ctx, "records", b.t.now())
	return b.Backend.Records(ctx, q)
}

// RecordLines times opening the stream; the body reads that follow are
// timed by the transport's body timer.
func (b tracedBackend) RecordLines(ctx context.Context, q bh.Query) (*bh.RecordStream, error) {
	defer b.record(ctx, "lines", b.t.now())
	return b.Backend.RecordLines(ctx, q)
}

func (b tracedBackend) Figure4(ctx context.Context, start time.Time, days int) (*bh.Figure4Result, error) {
	defer b.record(ctx, "figure4", b.t.now())
	return b.Backend.Figure4(ctx, start, days)
}

func (b tracedBackend) Figure4Sets(ctx context.Context, start time.Time, days int) (*bh.Figure4Sets, error) {
	defer b.record(ctx, "figure4sets", b.t.now())
	return b.Backend.Figure4Sets(ctx, start, days)
}

func (b tracedBackend) Stats(ctx context.Context) (*bh.BackendStats, error) {
	defer b.record(ctx, "stats", b.t.now())
	return b.Backend.Stats(ctx)
}

// openSegment is the store's OpenSegment hook with the default file
// flags; it only counts fsyncs of active segments.
func (t *tracer) openSegment(path string, create bool) (bh.SegmentFile, error) {
	flag := os.O_WRONLY | os.O_APPEND
	if create {
		flag = os.O_CREATE | os.O_EXCL | os.O_WRONLY
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return countedFile{File: f, n: &t.fsyncs}, nil
}

type countedFile struct {
	*os.File
	n *atomic.Int64
}

func (f countedFile) Sync() error {
	f.n.Add(1)
	return f.File.Sync()
}

// timedSource wraps a Source and times every Next call.
type timedSource struct {
	src   bh.Source
	elems int64
	wait  time.Duration
}

func (s *timedSource) Next() (*bh.Elem, error) {
	start := time.Now()
	el, err := s.src.Next()
	s.wait += time.Since(start)
	if err == nil {
		s.elems++
	}
	return el, err
}

// writeSpans writes the recorded spans as NDJSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// union returns the total length of the union of [start, end)
// intervals.
func union(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
			continue
		}
		ce = max(ce, x[1])
	}
	return total + ce - cs
}
