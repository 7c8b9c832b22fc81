package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"math/rand/v2"
	"net/http"
	"net/netip"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	bh "bgpblackholing"
)

// pointReq is one /events point query: an LPM lookup of an address.
type pointReq struct {
	path string
	q    bh.Query
	kind byte // 'h' hit, 'm' miss, 'e' hit with enrich=1
}

// pointAnswer is what the client keeps of one answer: enough to check
// it against the reference after the clock stops.
type pointAnswer struct {
	req          int
	status       int
	shardsFailed bool
	total        int
	events       [32]byte // digest of the "events" array
	at           time.Time
	latency      time.Duration
}

type pointRun struct {
	reqs       []*pointReq
	next       atomic.Int64 // index of the next request, shared by the clients
	answers    []pointAnswer
	lat        samples       // measured latencies, ms
	elapsed    time.Duration // measured time
	allocBytes float64       // heap bytes allocated while the clients ran
	spans      []span
}

const pointListLen = 1 << 15

// pointRequests draws the point request list: about 60% LPM hits on
// stored event addresses (Zipf over events, so a hot set repeats), 30%
// LPM misses, and 10% hits with enrich=1. Which events are hot is a
// property of the world, drawn from the world's seed, so every request
// seed samples the same popularity distribution; the seed draws the
// sequence.
func pointRequests(seed, worldSeed int64, events []*bh.Event, stores []*bh.Store) []*pointReq {
	perm := rand.New(rand.NewPCG(uint64(worldSeed), 0x686f74)).Perm(len(events))
	rng := rand.New(rand.NewPCG(uint64(seed), 0x706f696e74))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(events)-1))
	reqs := make([]*pointReq, pointListLen)
	for i := range reqs {
		u := rng.Float64()
		var addr netip.Addr
		kind := byte('h')
		switch {
		case u < 0.6:
			addr = events[perm[zipf.Uint64()]].Prefix.Addr()
		case u < 0.9:
			kind = 'm'
			addr = missAddr(rng, stores)
		default:
			kind = 'e'
			addr = events[perm[zipf.Uint64()]].Prefix.Addr()
		}
		reqs[i] = pointQuery(addr, kind == 'e')
		reqs[i].kind = kind
	}
	return reqs
}

func pointQuery(addr netip.Addr, enrich bool) *pointReq {
	v := url.Values{"prefix": {addr.String()}, "mode": {"lpm"}}
	if enrich {
		v.Set("enrich", "1")
	}
	return &pointReq{
		path: "/events?" + v.Encode(),
		// The JSON handler's default limit applies to these queries.
		q: bh.Query{Prefix: netip.PrefixFrom(addr, addr.BitLen()), Mode: bh.PrefixLPM, Limit: 10000, Enrich: enrich},
	}
}

// missAddr draws an IPv4 address no stored prefix covers.
func missAddr(rng *rand.Rand, stores []*bh.Store) netip.Addr {
	for {
		var b [4]byte
		v := rng.Uint32()
		b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		addr := netip.AddrFrom4(b)
		q := bh.Query{Prefix: netip.PrefixFrom(addr, 32), Mode: bh.PrefixLPM, Limit: 1}
		hit := false
		for _, st := range stores {
			if st.Query(q).Total > 0 {
				hit = true
			}
		}
		if !hit {
			return addr
		}
	}
}

// runPoint runs one stretch of the point phase: a closed loop of
// pointClients clients issuing JSON /events point queries through the
// router. The first stretch draws the request list and warms up.
func (s *session) runPoint(ctx context.Context) error {
	run := s.point
	from := time.Now()
	if run == nil {
		run = &pointRun{reqs: pointRequests(s.cfg.seed, s.cfg.opts.Seed, s.replay.res.Events, s.w.read.stores)}
		s.point = run
		from = time.Now().Add(s.cfg.warmup())
	}
	base := s.w.read.router.URL
	answers := make([][]pointAnswer, s.cfg.pointClients)
	errs := make([]error, s.cfg.pointClients)
	var wg sync.WaitGroup
	rt0 := readRuntime()
	deadline := from.Add(s.cfg.budget("point") / stretches)
	for c := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline) || n == 0; n++ {
				i := int(run.next.Add(1)-1) % len(run.reqs)
				a, err := s.pointOnce(ctx, base, i)
				if err != nil {
					errs[c] = err
					return
				}
				answers[c] = append(answers[c], a)
			}
		}()
	}
	wg.Wait()
	run.elapsed += time.Since(from)
	run.allocBytes += rtDelta(rt0, readRuntime(), 0)
	for c, as := range answers {
		if errs[c] != nil {
			return errs[c]
		}
		run.answers = append(run.answers, as...)
		for _, a := range as {
			if !a.at.Before(from) {
				run.lat.addDur(a.latency, time.Millisecond)
			}
		}
	}
	if s.tr != nil {
		run.spans = append(run.spans, s.tr.take()...)
	}
	return nil
}

// reportPoint reports the point metrics once every stretch has run.
func (s *session) reportPoint() {
	run := s.point
	s.attempted += int64(len(run.answers))
	s.rep.put("point_qps", float64(len(run.lat))/run.elapsed.Seconds(), "1/s", len(run.lat), "")
	s.rep.put("point_p50_ms", run.lat.median(), "ms", len(run.lat), "")
	s.tails.put("point_p99_ms", run.lat.quantile(0.99), "ms", len(run.lat), "")
	s.spans = append(s.spans, run.spans...)
}

// pointOnce issues request i and digests its answer.
func (s *session) pointOnce(ctx context.Context, base string, i int) (pointAnswer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+s.point.reqs[i].path, nil)
	if err != nil {
		return pointAnswer{}, err
	}
	var id int64
	if s.tr != nil {
		id = s.tr.newRequest(req)
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	a := pointAnswer{req: i, at: start}
	if err != nil {
		// A transport failure is a failed operation, not a broken run.
		a.latency = time.Since(start)
		return a, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a.latency = time.Since(start)
	if s.tr != nil {
		s.tr.add(span{Name: "client", Req: id, Shard: -1, Start: int64(start.Sub(s.tr.t0)), End: s.tr.now()})
	}
	a.status = resp.StatusCode
	a.shardsFailed = resp.Header.Get("X-Shards-Failed") != ""
	if err == nil {
		a.total, a.events = digestEnvelope(body)
	}
	return a, nil
}

// digestEnvelope extracts the total and a digest of the events array
// from an /events JSON envelope, whose keys are in sorted order. The
// other fields (elapsed_us, scanned) legitimately differ between a
// federation and a single store, and a null array digests like an
// empty one.
func digestEnvelope(body []byte) (total int, events [32]byte) {
	total = -1
	if i := bytes.Index(body, []byte(`"total": `)); i >= 0 {
		rest := body[i+len(`"total": `):]
		if j := bytes.IndexAny(rest, ",\n"); j > 0 {
			total, _ = strconv.Atoi(string(rest[:j]))
		}
	}
	k := bytes.Index(body, []byte(`"events": `))
	e := bytes.Index(body, []byte(",\n  \"returned\": "))
	if k < 0 || e < k {
		return -1, events
	}
	arr := body[k+len(`"events": `) : e]
	if bytes.Equal(arr, []byte("null")) {
		arr = []byte("[]")
	}
	return total, sha256.Sum256(arr)
}

// checkPoint compares every answer with the single reference store's:
// the same events (the reference handler's bytes) and the same total
// as Store.Query.
func (s *session) checkPoint(ref *reference) error {
	type want struct {
		total  int
		events [32]byte
	}
	cache := map[int]want{}
	bad := 0
	for _, a := range s.point.answers {
		w, ok := cache[a.req]
		if !ok {
			r := s.point.reqs[a.req]
			body, _ := ref.body(r.path)
			w.total, w.events = digestEnvelope(body)
			q := r.q
			q.Enrich = false
			if st := ref.st.Query(q).Total; st != w.total {
				w.total = -2 // the reference handler disagrees with Store.Query
			}
			cache[a.req] = w
		}
		if a.status != http.StatusOK || a.shardsFailed || a.total != w.total || a.events != w.events {
			bad++
			if bad <= 3 {
				s.fail(0, "point: %s: status %d, total %d (want %d), events match %v",
					s.point.reqs[a.req].path, a.status, a.total, w.total, a.events == w.events)
			}
		}
	}
	if bad > 0 {
		s.fail(int64(bad), "point: %d of %d answers differ from the reference store", bad, len(s.point.answers))
	}
	return nil
}
