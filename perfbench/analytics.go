package main

import (
	"context"
	"crypto/sha256"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	bh "bgpblackholing"
)

// scanReq is one analytics request: an NDJSON range scan over a
// 30–120-day window ('w'), an NDJSON per-origin slice ('o'), or the
// full-timeline /figure4 series ('f').
type scanReq struct {
	path string
	q    bh.Query
	kind byte
}

type scanAnswer struct {
	req          int
	id           int64 // trace request id (traced pass)
	status       int
	shardsFailed bool
	bytes        int64
	digest       [32]byte
	at           time.Time
	ttfb, total  time.Duration
}

type analyticsRun struct {
	reqs      []*scanReq
	next      int // index of the next request
	answers   []scanAnswer
	scanBytes int64         // measured NDJSON scan bytes
	scanTime  time.Duration // measured time spent in scans
	ttfb, fig samples       // measured scan TTFBs and /figure4 latencies, ms
	spans     []span
}

const scanListLen = 64

// scanRequests draws the analytics request list: 75% window scans, 10%
// per-origin slices, 15% /figure4. The client cycles through the list;
// scans are never memoized, so a repeated window costs what a fresh one
// does, and the short list keeps the reference check cheap.
func scanRequests(seed int64, days int, events []*bh.Event) []*scanReq {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x616e616c))
	reqs := make([]*scanReq, scanListLen)
	for i := range reqs {
		u := rng.Float64()
		switch {
		case u < 0.15:
			reqs[i] = &scanReq{path: "/figure4", kind: 'f'}
		case u < 0.25:
			ev := events[rng.IntN(len(events))]
			var users []uint32
			for u := range ev.Users {
				users = append(users, uint32(u))
			}
			if len(users) > 0 {
				asn := slices.Min(users)
				reqs[i] = &scanReq{
					path: "/events?" + url.Values{"format": {"ndjson"}, "origin": {strconv.FormatUint(uint64(asn), 10)}}.Encode(),
					q:    bh.Query{OriginASN: bh.ASN(asn)},
					kind: 'o',
				}
				continue
			}
			fallthrough
		default:
			span := min(30+rng.IntN(91), days)
			d0 := rng.IntN(days - span + 1)
			from := bh.TimelineStart.Add(time.Duration(d0) * 24 * time.Hour)
			to := from.Add(time.Duration(span) * 24 * time.Hour)
			reqs[i] = &scanReq{
				path: "/events?" + url.Values{"format": {"ndjson"}, "from": {from.Format(time.RFC3339)}, "to": {to.Format(time.RFC3339)}}.Encode(),
				q:    bh.Query{From: from, To: to},
				kind: 'w',
			}
		}
	}
	return reqs
}

// runAnalytics runs one stretch of the analytics phase: one client
// sending NDJSON scans and /figure4 requests through the router, one
// after another. The first stretch draws the request list and warms up.
func (s *session) runAnalytics(ctx context.Context) error {
	run := s.analytics
	from := time.Now()
	if run == nil {
		run = &analyticsRun{reqs: scanRequests(s.cfg.seed, s.cfg.opts.Days, s.replay.res.Events)}
		s.analytics = run
		from = time.Now().Add(s.cfg.warmup())
	}
	deadline := from.Add(s.cfg.budget("analytics") / stretches)
	buf := make([]byte, 64<<10)
	// A stretch ends at its deadline once it has timed a scan and a
	// /figure4, so even a very short stretch reports every metric.
	for time.Now().Before(deadline) || len(run.ttfb) == 0 || len(run.fig) == 0 {
		a, err := s.scanOnce(ctx, s.w.read.router.URL, run.next%len(run.reqs), buf)
		if err != nil {
			return err
		}
		run.next++
		run.answers = append(run.answers, a)
		if a.at.Before(from) {
			continue
		}
		if run.reqs[a.req].kind == 'f' {
			run.fig.addDur(a.total, time.Millisecond)
			continue
		}
		run.scanBytes += a.bytes
		run.scanTime += a.total
		run.ttfb.addDur(a.ttfb, time.Millisecond)
	}
	if s.tr != nil {
		run.spans = append(run.spans, s.tr.take()...)
	}
	return nil
}

// reportAnalytics reports the analytics metrics once every stretch has
// run.
func (s *session) reportAnalytics() {
	run := s.analytics
	s.attempted += int64(len(run.answers))
	s.rep.put("analytics_scan_mb_per_s", float64(run.scanBytes)/1e6/run.scanTime.Seconds(), "MB/s", len(run.ttfb), "")
	s.rep.put("analytics_scan_ttfb_p50_ms", run.ttfb.median(), "ms", len(run.ttfb), "")
	s.rep.put("analytics_figure4_p50_ms", run.fig.median(), "ms", len(run.fig), "")
	s.spans = append(s.spans, run.spans...)
}

// scanOnce issues request i, timing the first body byte and the whole
// body, and digests the body.
func (s *session) scanOnce(ctx context.Context, base string, i int, buf []byte) (scanAnswer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+s.analytics.reqs[i].path, nil)
	if err != nil {
		return scanAnswer{}, err
	}
	var id int64
	if s.tr != nil {
		id = s.tr.newRequest(req)
	}
	start := time.Now()
	a := scanAnswer{req: i, id: id, at: start}
	resp, err := s.client.Do(req)
	if err != nil {
		a.total = time.Since(start)
		return a, nil
	}
	defer resp.Body.Close()
	a.status = resp.StatusCode
	a.shardsFailed = resp.Header.Get("X-Shards-Failed") != ""
	h := sha256.New()
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if a.bytes == 0 {
				a.ttfb = time.Since(start)
			}
			a.bytes += int64(n)
			h.Write(buf[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			a.status = -1 // a body cut off mid-stream
			break
		}
	}
	a.total = time.Since(start)
	if s.tr != nil {
		s.tr.add(span{Name: "client", Req: id, Shard: -1, Start: int64(start.Sub(s.tr.t0)), End: s.tr.now()})
	}
	copy(a.digest[:], h.Sum(nil))
	return a, nil
}

// checkAnalytics compares every body with the single-store handler's
// body for the same request.
func (s *session) checkAnalytics(ref *reference) error {
	type want struct {
		digest [32]byte
		bytes  int64
	}
	cache := map[string]want{}
	bad := 0
	for _, a := range s.analytics.answers {
		path := s.analytics.reqs[a.req].path
		w, ok := cache[path]
		if !ok {
			body, _ := ref.body(path)
			w = want{digest: sha256.Sum256(body), bytes: int64(len(body))}
			cache[path] = w
		}
		if a.status != http.StatusOK || a.shardsFailed || a.digest != w.digest {
			bad++
			if bad <= 3 {
				s.fail(0, "analytics: %s: status %d, %d bytes (want %d)", path, a.status, a.bytes, w.bytes)
			}
		}
	}
	if bad > 0 {
		s.fail(int64(bad), "analytics: %d of %d bodies differ from the single store's", bad, len(s.analytics.answers))
	}
	return nil
}
