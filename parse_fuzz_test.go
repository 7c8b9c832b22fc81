package bgpblackholing

import (
	"encoding/json"
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

// recordLineSeeds are real plain and enriched NDJSON record lines, in
// the exact shape a shard serves.
func recordLineSeeds(t testing.TB) [][]byte {
	t.Helper()
	start := time.Date(2015, 3, 1, 13, 0, 0, 0, time.UTC)
	plain := EventRecord{
		Prefix: "10.1.2.3/32", Start: start, End: start.Add(90 * time.Minute),
		DurationSeconds: 5400, Providers: []string{"AS3356", "ixp:4"}, Users: []uint32{65001},
		Communities: []string{"3356:9999"}, Platforms: []string{"RIS"}, Peers: 3, Detections: 5, Seq: 42,
	}
	enriched := plain
	enriched.Prefix, enriched.Seq, enriched.StartUnknown = "2001:db8::/48", 18446744073709551615, true
	enriched.RPKI = []OriginValidity{{Origin: 65001, State: "valid"}}
	enriched.CommunityDoc = []CommunityDoc{{Community: "3356:9999", Doc: "irr", MaxPrefixLen: 32, WithinMaxLen: true}}
	enriched.Legitimacy, enriched.LegitimacyReasons = "legitimate", []string{"roa-valid", "community-documented"}
	var lines [][]byte
	for _, rec := range []EventRecord{plain, enriched, {Prefix: "192.0.2.0/24"}} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

// FuzzRecordLineKey: the router's key-only line decoder is
// indistinguishable from a full json.Unmarshal into recordLineKey — it
// errors exactly when that does, and otherwise yields the same key.
func FuzzRecordLineKey(f *testing.F) {
	for _, line := range recordLineSeeds(f) {
		f.Add(line)
	}
	for _, s := range []string{
		`{"\u0073eq":7,"prefix":"10.0.0.0/8"}`,
		`{"prefix":"10.0.0.0\/8","start":"2015-03-01T13:00:00Z"}`,
		`{"SEQ":7,"Prefix":"10.0.0.0/8","START":"2015-03-01T13:00:00Z","End":"2015-03-01T14:00:00Z"}`,
		`{"\u017feq":7}`,
		`{"seq":1,"seq":2,"prefix":"a","prefix":"b","end":"2015-03-01T13:00:00Z","end":"2016-03-01T13:00:00Z"}`,
		`{"seq":null,"start":null,"end":null,"prefix":null}`,
		`{"seq":5,"seq":null,"prefix":"p","prefix":null}`,
		`{"seq":-1}`,
		`{"seq":1.5}`,
		`{"seq":1e3}`,
		`{"seq":"7"}`,
		`{"seq":18446744073709551616}`,
		`{"start":"2015-03-01T13:00:00.123456789Z","end":"2015-03-01T09:00:00.5-04:30"}`,
		`{"start":"2015-03-01T13:00:00+01:00","end":"2015-03-01 13:00:00Z"}`,
		`{"start":20150301,"prefix":7}`,
		` { "seq" : 3 , "x" : [ {"seq":9}, "}" ] , "prefix" : "10.0.0.0/8" } `,
		`{"prefix":"caf\u00e9","start":"\u0032015-03-01T13:00:00Z"}`,
		`{"prefix":"é"}`,
		`{}`,
		`null`,
		`[]`,
		`"seq"`,
		`{"seq":1}{"seq":2}`,
		`{"seq":1,}`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want recordLineKey
		werr := json.Unmarshal(line, &want)
		got, gerr := decodeRecordKey(line)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%q: json.Unmarshal err %v, decodeRecordKey err %v", line, werr, gerr)
		}
		if werr != nil {
			return
		}
		wantKey := RecordKey{End: want.End.UnixNano(), Seq: want.Seq, Start: want.Start.UnixNano(), Prefix: want.Prefix}
		if got != wantKey {
			t.Fatalf("%q: key %+v, json.Unmarshal gives %+v", line, got, wantKey)
		}
	})
}

// TestRecordLineKeyFastPath pins that real record lines never need the
// full decoder: the fallback exists for odd input, not for the lines
// shards actually serve.
func TestRecordLineKeyFastPath(t *testing.T) {
	for _, line := range recordLineSeeds(t) {
		if _, ok := scanRecordKey(line); !ok {
			t.Errorf("%s: fell back to json.Unmarshal", line)
		}
	}
}
