package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"time"

	bh "bgpblackholing"
)

// The ladder replays the recorded point and analytics requests rung by
// rung against the single reference store — Store, StoreBackend, the
// in-process handler, one loopback shard — and through the router, so
// shard time splits into store lookup, projection and encoding, and
// transport. Each rung runs the list twice; the first pass warms the
// memo and annotation caches the full-stack pass had warm.

const (
	ladderPoints = 2000
	ladderScans  = 40
	ladderFig4   = 5
)

func (s *session) ladder(ctx context.Context, ref *reference) error {
	sb := bh.NewStoreBackend(ref.st, s.w.p)
	loop := httptest.NewServer(ref.h)
	defer loop.Close()
	c := newClient(1)
	defer closeClient(c)
	if err := s.pointLadder(ctx, ref, sb, c, loop.URL); err != nil {
		return err
	}
	if err := s.scanLadder(ctx, ref, sb, c, loop.URL); err != nil {
		return err
	}
	s.tr.take() // drop the router rung's spans: they carry no request id
	s.pointSpanLayers()
	s.scanSpanLayers()
	return nil
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func (s *session) pointLadder(ctx context.Context, ref *reference, sb *bh.StoreBackend, c *http.Client, loopURL string) error {
	reqs := s.point.reqs[:min(ladderPoints, len(s.point.reqs))]
	var store, backend, plainE, enriched, inproc, loopback, router samples
	var scanned, total float64
	for pass := 0; pass < 2; pass++ {
		keep := pass == 1
		for _, r := range reqs {
			q := r.q
			q.Enrich = false
			var res *bh.QueryResult
			d := timed(func() { res = ref.st.Query(q) })
			if keep {
				store.addDur(d, time.Microsecond)
				scanned += float64(res.Scanned)
				total += float64(res.Total)
			}
			var err error
			d = timed(func() { _, err = sb.Records(ctx, q) })
			if err != nil {
				return err
			}
			if keep {
				backend.addDur(d, time.Microsecond)
			}
			if r.kind == 'e' {
				de := timed(func() { _, err = sb.Records(ctx, r.q) })
				if err != nil {
					return err
				}
				if keep {
					plainE.addDur(d, time.Microsecond)
					enriched.addDur(de, time.Microsecond)
				}
			}
			rec := httptest.NewRecorder()
			hreq := httptest.NewRequest(http.MethodGet, r.path, nil)
			d = timed(func() { ref.h.ServeHTTP(rec, hreq) })
			if keep {
				inproc.addDur(d, time.Microsecond)
			}
			d = timed(func() { _, _, _, err = fetch(ctx, c, loopURL+r.path) })
			if err != nil {
				return err
			}
			if keep {
				loopback.addDur(d, time.Microsecond)
			}
			d = timed(func() { _, _, _, err = fetch(ctx, c, s.w.read.router.URL+r.path) })
			if err != nil {
				return err
			}
			if keep {
				router.addDur(d, time.Microsecond)
			}
		}
	}
	const moves = "point_p50_ms (point)"
	s.layers.put("store.query_us_p50", store.median(), "us", len(store), moves)
	s.layers.put("store.scanned_per_result", ratio(scanned, total), "ratio", len(store), moves)
	s.layers.put("backend.records_us_p50", backend.median(), "us", len(backend), moves)
	s.layers.put("enrich.annotate_us_p50", max(0, enriched.median()-plainE.median()), "us", len(enriched), moves)
	s.layers.put("http.inproc_us_p50", inproc.median(), "us", len(inproc), "point_p50_ms, point_qps (point)")
	s.layers.put("http.loopback_us_p50", loopback.median(), "us", len(loopback), "point_p50_ms, point_qps (point)")
	s.layers.put("ladder.http_over_store", ratio(inproc.median(), store.median()), "ratio", len(store), moves)
	s.layers.put("ladder.router_over_shard", ratio(router.median(), loopback.median()), "ratio", len(router), moves)
	return nil
}

func (s *session) scanLadder(ctx context.Context, ref *reference, sb *bh.StoreBackend, c *http.Client, loopURL string) error {
	var scans []*scanReq
	for _, r := range s.analytics.reqs {
		if r.kind != 'f' && len(scans) < ladderScans {
			scans = append(scans, r)
		}
	}
	var events, lineBytes, httpBytes float64
	var storeT, lineT, httpT time.Duration
	for _, r := range scans {
		storeT += timed(func() {
			for range ref.st.QuerySeq(r.q) {
				events++
			}
		})
		var err error
		lineT += timed(func() {
			var rs *bh.RecordStream
			if rs, err = sb.RecordLines(ctx, r.q); err != nil {
				return
			}
			defer rs.Close()
			for {
				rl, err := rs.Next()
				if err != nil {
					break
				}
				lineBytes += float64(len(rl.Line) + 1)
			}
		})
		if err != nil {
			return err
		}
		var body []byte
		httpT += timed(func() { body, _, _, err = fetch(ctx, c, loopURL+r.path) })
		if err != nil {
			return err
		}
		httpBytes += float64(len(body))
	}
	const moves = "analytics_scan_mb_per_s (analytics)"
	s.layers.put("store.scan_events_per_s", events/storeT.Seconds(), "events/s", len(scans), moves)
	s.layers.put("backend.lines_mb_per_s", lineBytes/1e6/lineT.Seconds(), "MB/s", len(scans), moves)
	s.layers.put("http.shard_stream_mb_per_s", httpBytes/1e6/httpT.Seconds(), "MB/s", len(scans), moves)

	stats := ref.st.Stats()
	start := stats.MinStart.UTC().Truncate(24 * time.Hour)
	days := int(stats.MaxEnd.Sub(start).Hours()/24) + 1
	var fig, sets samples
	for i := 0; i < ladderFig4; i++ {
		fig.addDur(timed(func() { ref.st.Figure4(start, days) }), time.Microsecond)
		var err error
		sets.addDur(timed(func() { _, err = sb.Figure4Sets(ctx, start, days) }), time.Microsecond)
		if err != nil {
			return err
		}
	}
	const figMoves = "analytics_figure4_p50_ms (analytics)"
	s.layers.put("store.figure4_us", fig.median(), "us", len(fig), figMoves)
	s.layers.put("backend.figure4sets_us", sets.median(), "us", len(sets), figMoves)
	return nil
}

// requestSpans groups the spans of one routed request.
type requestSpans struct {
	router    *span
	remote    []span
	transport map[int]span
	shard     map[int]span
}

func groupSpans(spans []span) map[int64]*requestSpans {
	out := map[int64]*requestSpans{}
	for i := range spans {
		sp := spans[i]
		if sp.Req == 0 {
			continue
		}
		g := out[sp.Req]
		if g == nil {
			g = &requestSpans{transport: map[int]span{}, shard: map[int]span{}}
			out[sp.Req] = g
		}
		switch sp.Name {
		case "router":
			g.router = &spans[i]
		case "remote":
			g.remote = append(g.remote, sp)
		case "transport":
			g.transport[sp.Shard] = sp
		case "shard":
			g.shard[sp.Shard] = sp
		}
	}
	return out
}

func (g *requestSpans) remoteUnion() int64 {
	iv := make([][2]int64, len(g.remote))
	for i, r := range g.remote {
		iv[i] = [2]int64{r.Start, r.End}
	}
	return union(iv)
}

// pointSpanLayers derives self times on the full stack from the traced
// point phase's spans.
func (s *session) pointSpanLayers() {
	var routerSelf, remoteSelf, remoteNet, shard, straggler samples
	var bytes float64
	groups := groupSpans(s.point.spans)
	for _, g := range groups {
		if g.router == nil || len(g.remote) == 0 {
			continue
		}
		routerSelf.add(float64(g.router.dur()-g.remoteUnion()) / 1e3)
		lo, hi := g.remote[0].dur(), g.remote[0].dur()
		for _, r := range g.remote {
			lo, hi = min(lo, r.dur()), max(hi, r.dur())
			t, okT := g.transport[r.Shard]
			sh, okS := g.shard[r.Shard]
			if !okT || !okS {
				continue
			}
			wire := t.Mark - t.Start + t.Wait
			remoteSelf.add(float64(r.dur()-wire) / 1e3)
			remoteNet.add(float64(wire-sh.dur()) / 1e3)
			shard.add(float64(sh.dur()) / 1e3)
			bytes += float64(t.Bytes)
		}
		straggler.add(float64(hi-lo) / 1e3)
	}
	const moves = "point_p50_ms, point_qps (point), live_read_p50_ms (live)"
	s.layers.put("router.self_us_p50", routerSelf.median(), "us", len(routerSelf), moves)
	s.layers.put("remote.self_us_p50", remoteSelf.median(), "us", len(remoteSelf), moves)
	s.layers.put("remote.net_us_p50", remoteNet.median(), "us", len(remoteNet), moves)
	s.layers.put("shard.handler_us_p50", shard.median(), "us", len(shard), moves)
	s.layers.put("federate.straggler_us_p50", straggler.median(), "us", len(straggler), moves)
	s.layers.put("remote.bytes_per_query", ratio(bytes, float64(len(routerSelf))), "B", len(routerSelf), moves)
	s.layers.put("runtime.alloc_bytes_per_query", ratio(s.point.allocBytes, float64(len(s.point.answers))), "B", len(s.point.answers), moves)
}

// scanSpanLayers derives the router's share of NDJSON scans and
// /figure4 from the traced analytics phase's spans.
func (s *session) scanSpanLayers() {
	kinds := map[int64]byte{}
	for _, a := range s.analytics.answers {
		kinds[a.id] = s.analytics.reqs[a.req].kind
	}
	var routerTime, selfTime, wait float64
	var fig samples
	for id, g := range groupSpans(s.analytics.spans) {
		if g.router == nil {
			continue
		}
		if kinds[id] == 'f' {
			fig.add(float64(g.router.dur()-g.remoteUnion()) / 1e6)
			continue
		}
		var w int64
		for _, t := range g.transport {
			w += t.Wait
		}
		routerTime += float64(g.router.dur())
		selfTime += float64(max(0, g.router.dur()-g.remoteUnion()-w))
		wait += float64(w)
	}
	const moves = "analytics_scan_mb_per_s, analytics_scan_ttfb_p50_ms (analytics)"
	s.layers.put("router.scan_self_frac", ratio(selfTime, routerTime), "ratio", 1, moves)
	s.layers.put("remote.body_wait_s", wait/1e9, "s", 1, moves)
	s.layers.put("router.figure4_self_ms", fig.median(), "ms", len(fig), "analytics_figure4_p50_ms (analytics)")
}
