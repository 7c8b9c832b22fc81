package bgpblackholing

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"
)

// routerFixture federates two in-process shards built from the
// three-event store fixture.
func routerFixture(t *testing.T) *FederatedStore {
	t.Helper()
	return NewFederatedStore(
		NewStoreBackend(storeFixture(t), nil).WithName("a"),
		NewStoreBackend(storeFixture(t), nil).WithName("b"),
	)
}

func status(t *testing.T, h http.Handler, method, path, token string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRouterSurface pins bhroute's HTTP surface: bearer auth guards
// everything but /healthz, the rate limit answers 429 with Retry-After,
// telemetry exposes the per-shard federation counters next to the
// per-route request metrics, and the routes that need a local store or
// an alert hub do not exist on a router.
func TestRouterSurface(t *testing.T) {
	t.Run("auth", func(t *testing.T) {
		h := NewRouterHandler(routerFixture(t), RouterOptions{AuthToken: "s3cret"})
		if rec := status(t, h, "GET", "/events", ""); rec.Code != http.StatusUnauthorized {
			t.Fatalf("/events without token: %d, want 401", rec.Code)
		}
		if rec := status(t, h, "GET", "/events", "s3cret"); rec.Code != http.StatusOK {
			t.Fatalf("/events with token: %d, want 200", rec.Code)
		}
		if rec := status(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
			t.Fatalf("/healthz without token: %d, want 200", rec.Code)
		}
	})

	t.Run("rate-limit", func(t *testing.T) {
		h := NewRouterHandler(routerFixture(t), RouterOptions{RateLimit: 0.001, RateBurst: 1})
		if rec := status(t, h, "GET", "/events", ""); rec.Code != http.StatusOK {
			t.Fatalf("first request: %d, want 200", rec.Code)
		}
		rec := status(t, h, "GET", "/events", "")
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("second request: %d, want 429", rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
	})

	t.Run("telemetry", func(t *testing.T) {
		h := NewRouterHandler(routerFixture(t), RouterOptions{Telemetry: NewTelemetry()})
		if rec := status(t, h, "GET", "/events", ""); rec.Code != http.StatusOK {
			t.Fatalf("/events: %d", rec.Code)
		}
		rec := status(t, h, "GET", "/metrics", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics: %d", rec.Code)
		}
		body := rec.Body.String()
		for _, want := range []string{
			`bh_federation_shard_requests_total{shard="a"} 1`,
			`bh_federation_shard_requests_total{shard="b"} 1`,
			`bh_federation_shards 2`,
			`bh_http_requests_total{route="GET /events",class="2xx"} 1`,
			`bh_http_request_seconds_count{route="GET /events"} 1`,
		} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics lacks %q", want)
			}
		}
	})

	t.Run("store-only-routes", func(t *testing.T) {
		h := NewRouterHandler(routerFixture(t), RouterOptions{})
		for _, path := range []string{"/figure8", "/table3", "/table4", "/watch", "/rules"} {
			if rec := status(t, h, "GET", path, ""); rec.Code != http.StatusNotFound {
				t.Errorf("GET %s: %d, want 404", path, rec.Code)
			}
		}
	})
}

// TestRouterSubSecondBounds: a router forwards from/to to its shards
// with their fractional seconds, so a federation over one remote shard
// answers exactly what the shard answers directly.
func TestRouterSubSecondBounds(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	base := time.Date(2015, 3, 1, 12, 0, 0, 0, time.UTC)
	mk := func(prefix string, end time.Time, seq uint64) *Event {
		return &Event{
			Prefix:    netip.MustParsePrefix(prefix),
			Start:     base,
			End:       end,
			Seq:       seq,
			Providers: map[ProviderRef]bool{{Kind: ProviderAS, ASN: 3356}: true},
			Users:     map[ASN]bool{65001: true},
		}
	}
	hour := base.Add(time.Hour)
	if err := st.Append(
		mk("10.1.2.3/32", hour.Add(250*time.Millisecond), 1),
		mk("10.1.2.4/32", hour.Add(750*time.Millisecond), 2),
	); err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(NewStoreHandler(st, nil))
	defer shard.Close()
	rb, err := NewRemoteBackend([]string{shard.URL}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouterHandler(NewFederatedStore(rb), RouterOptions{})

	path := "/events?format=ndjson&from=2015-03-01T13:00:00.5Z"
	direct := status(t, NewStoreHandler(st, nil), "GET", path, "")
	routed := status(t, router, "GET", path, "")
	dbody, _ := io.ReadAll(direct.Body)
	rbody, _ := io.ReadAll(routed.Body)
	if n := bytes.Count(dbody, nl); n != 1 {
		t.Fatalf("store handler returned %d lines, want 1", n)
	}
	if !bytes.Equal(dbody, rbody) {
		t.Fatalf("router body diverges from the shard's:\nshard:  %s\nrouter: %s", dbody, rbody)
	}
}
