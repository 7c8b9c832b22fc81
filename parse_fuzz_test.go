package bgpblackholing

import (
	"net/http"
	"net/netip"
	"net/url"
	"testing"
	"time"
)

// FuzzQueryRoundTrip: every query string parseQuery accepts survives
// the trip a router makes to its shards — queryParams renders it, the
// shard parses it back, and the shard sees the same Query.
func FuzzQueryRoundTrip(f *testing.F) {
	for _, s := range []string{
		"",
		"from=2015-03-01T13:00:00.5Z&to=2015-03-02T00:00:00%2B01:00",
		"prefix=10.1.2.3&mode=lpm",
		"prefix=2001:db8::/32&mode=covered&origin=65001",
		"provider=AS3356&community=3356:9999",
		"provider=ixp:4&min_duration=90s&max_duration=1h30m0.5s",
		"limit=7&enrich=true",
		"from=0001-01-01T00:00:00Z&limit=0&enrich=0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := parseQuery(&http.Request{URL: &url.URL{RawQuery: raw}})
		if err != nil {
			return
		}
		enc := queryParams(q).Encode()
		back, err := parseQuery(&http.Request{URL: &url.URL{RawQuery: enc}})
		if err != nil {
			t.Fatalf("%q -> %q: re-parse failed: %v", raw, enc, err)
		}
		if !sameQuery(q, back) {
			t.Fatalf("%q -> %q: query changed:\n got %+v\nwant %+v", raw, enc, back, q)
		}
	})
}

// sameQuery compares queries field by field, times by instant.
func sameQuery(a, b Query) bool {
	if (a.Provider == nil) != (b.Provider == nil) || a.Provider != nil && *a.Provider != *b.Provider {
		return false
	}
	return a.From.Equal(b.From) && a.To.Equal(b.To) &&
		a.Prefix == b.Prefix && a.Mode == b.Mode && a.OriginASN == b.OriginASN &&
		a.Community == b.Community &&
		a.MinDuration == b.MinDuration && a.MaxDuration == b.MaxDuration &&
		a.Limit == b.Limit && a.Enrich == b.Enrich
}

// FuzzParseShardPlan: the plan parser never panics, and every plan it
// accepts has a sane shard count and maps any event into [0, N).
func FuzzParseShardPlan(f *testing.F) {
	for _, s := range []string{"time:168h:3", "prefix:8:4", "prefix:32:1048576", "time:1ns:1", "prefix:0:3", "time:-1h:2", "x:1:1", "time:1h"} {
		f.Add(s, int64(1425214800e9), []byte{10, 1, 2, 3})
	}
	f.Fuzz(func(t *testing.T, s string, endNanos int64, addr []byte) {
		plan, err := ParseShardPlan(s)
		if err != nil {
			return
		}
		n := plan.Shards()
		if n < 1 || n > 1<<20 {
			t.Fatalf("%q: accepted shard count %d outside [1, 2^20]", s, n)
		}
		var a16 [16]byte
		copy(a16[:], addr)
		a4 := [4]byte(a16[:4])
		for _, a := range []netip.Addr{netip.AddrFrom4(a4), netip.AddrFrom16(a16)} {
			ev := &Event{Prefix: netip.PrefixFrom(a, a.BitLen()), End: time.Unix(0, endNanos)}
			if got := plan.Shard(ev); got < 0 || got >= n {
				t.Fatalf("%q: event %s ending %v maps to shard %d of %d", s, ev.Prefix, ev.End, got, n)
			}
		}
	})
}
