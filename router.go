package bgpblackholing

import "net/http"

// RouterOptions configures NewRouterHandler, mirroring the subset of
// HandlerOptions that makes sense for a stateless query router.
type RouterOptions struct {
	// AuthToken, when non-empty, requires "Authorization: Bearer
	// <token>" on every route except /healthz.
	AuthToken string
	// RateLimit caps per-client requests/second (0 = unlimited);
	// RateBurst is the bucket size (default max(10, ceil(RateLimit))).
	RateLimit float64
	RateBurst int
	// Telemetry wires the router's routes through the request
	// middleware and serves GET /metrics, including the per-shard
	// federation counters (ObserveFederation is called for you).
	Telemetry *Telemetry
}

// NewRouterHandler serves a federated query tier over HTTP. It is the
// store handler's route table served over fed instead of a local
// store: /healthz, /stats, /events, /legitimacy and /figure4 take the
// same parameters and answer in the same shapes as NewStoreHandler's,
// by fanning out to the federation's shard backends and merging:
//
//	/healthz       every shard is probed; a down or degraded shard
//	               surfaces as a "shard:<name>..." check (503)
//	/stats         aggregated store shape (flat StoreStats keys) plus
//	               a version-tagged "shards" block with per-shard
//	               status and lifetime request/failure/hedge counters
//	/events        limits pushed down per shard and re-applied after
//	               the global merge
//	/legitimacy    per-shard histograms summed
//	/figure4       per-shard per-day entity sets, unioned then counted
//	               (shape=sets serves the mergeable form, so routers
//	               can themselves be federated)
//	/metrics       Prometheus exposition, including the per-shard
//	               federation counters (with Telemetry)
//
// Partial results: when some (not all) shards fail, data routes answer
// 200 with the X-Shards-Failed header counting the missing shards, and
// /stats marks the shard "down" in the shards block. Only when every
// shard fails does a route answer 502.
//
// The routes that need a local store and the pipeline's world
// (/figure8, /table3, /table4) and the alerting surface (/watch,
// /rules) are absent (404): they belong to the shard servers.
func NewRouterHandler(fed *FederatedStore, opts RouterOptions) http.Handler {
	h := newHandler(fed, nil, nil, HandlerOptions{
		AuthToken: opts.AuthToken,
		RateLimit: opts.RateLimit,
		RateBurst: opts.RateBurst,
		Telemetry: opts.Telemetry,
	})
	if opts.Telemetry != nil {
		opts.Telemetry.ObserveFederation(fed)
	}
	return h
}

// ObserveFederation registers per-shard federation gauges and
// counters, labeled by shard name: lifetime request, failure and hedge
// counts plus an up/down gauge from the last stats fan-out.
func (t *Telemetry) ObserveFederation(fed *FederatedStore) {
	r := t.reg
	names := []string{"shard"}
	for i, b := range fed.backends {
		c := &fed.counters[i]
		values := []string{b.Name()}
		r.CounterFuncLabeled("bh_federation_shard_requests_total", "Fan-out requests sent to the shard.", names, values, c.requests.Load)
		r.CounterFuncLabeled("bh_federation_shard_failures_total", "Fan-out requests the shard failed to answer.", names, values, c.failures.Load)
		r.CounterFuncLabeled("bh_federation_shard_hedges_total", "Hedged retries raced against the shard's replicas.", names, values, c.hedges.Load)
	}
	r.GaugeFunc("bh_federation_shards", "Number of shards behind this router.", func() float64 {
		return float64(len(fed.backends))
	})
}
