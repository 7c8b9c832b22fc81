package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"testing"
	"time"

	"bgpblackholing"
)

// fixtureEvents is more than a server's 10000-event JSON default, so an
// uncapped query only matches across sources if every source lifts it.
const fixtureEvents = 10050

// writeStore appends events to a new store in dir and closes it.
func writeStore(t *testing.T, dir string, events []*bgpblackholing.Event) {
	t.Helper()
	st, err := bgpblackholing.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(events...); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// serveStore serves a read-only open of dir the way bhserve does.
func serveStore(t *testing.T, dir string) string {
	t.Helper()
	st, err := bgpblackholing.OpenStoreReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(bgpblackholing.NewStoreHandler(st, nil))
	t.Cleanup(srv.Close)
	return srv.URL
}

// sources builds one synthetic event history three ways — a store
// directory, one server over a copy of it, and two servers splitting
// it — and returns the -store and -server values that reach each.
func sources(t *testing.T) (storeDir, oneServer, twoServers string) {
	t.Helper()
	base := time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC)
	var all, even, odd []*bgpblackholing.Event
	for i := range fixtureEvents {
		start := base.Add(time.Duration(i) * 7 * time.Minute)
		ev := &bgpblackholing.Event{
			Prefix:      netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1}), 32),
			Start:       start,
			End:         start.Add(time.Duration(1+i%90) * time.Minute),
			Seq:         uint64(i + 1),
			Providers:   map[bgpblackholing.ProviderRef]bool{{Kind: bgpblackholing.ProviderAS, ASN: 3356}: true},
			Users:       map[bgpblackholing.ASN]bool{bgpblackholing.ASN(65000 + i%7): true},
			Communities: map[bgpblackholing.Community]bool{bgpblackholing.MakeCommunity(3356, 9999): true},
			Platforms:   map[bgpblackholing.Platform]bool{bgpblackholing.PlatformRIS: true},
			Detections:  1 + i%3,
		}
		all = append(all, ev)
		if i%2 == 0 {
			even = append(even, ev)
		} else {
			odd = append(odd, ev)
		}
	}
	storeDir, served := t.TempDir(), t.TempDir()
	shardA, shardB := t.TempDir(), t.TempDir()
	writeStore(t, storeDir, all)
	writeStore(t, served, all)
	writeStore(t, shardA, even)
	writeStore(t, shardB, odd)
	return storeDir, serveStore(t, served), serveStore(t, shardA) + "," + serveStore(t, shardB)
}

// TestSourcesPrintIdenticalBytes: the same filter through -store, one
// -server and a two-server list prints the same bytes, including an
// uncapped JSON answer larger than a server's default JSON limit.
func TestSourcesPrintIdenticalBytes(t *testing.T) {
	storeDir, oneServer, twoServers := sources(t)
	cases := []struct {
		name string
		edit func(c *config)
	}{
		{"ndjson-filtered", func(c *config) {
			c.format, c.prefix, c.mode, c.origin, c.minDur = "ndjson", "10.8.0.0/13", "covered", 65003, 30*time.Minute
		}},
		{"ndjson-limit", func(c *config) { c.format, c.limit = "ndjson", 25 }},
		{"json-unlimited", func(c *config) { c.format = "json" }},
		{"csv-window", func(c *config) {
			c.format, c.from, c.to = "csv", "2015-03-10T00:00:00Z", "2015-03-12T12:30:00.5Z"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			outputs := map[string][]byte{}
			for name, src := range map[string]config{
				"store":       {storeDir: storeDir},
				"one-server":  {server: oneServer},
				"two-servers": {server: twoServers},
			} {
				c := src
				c.mode, c.every, c.groupTO = "exact", 30, bgpblackholing.DefaultGroupTimeout
				tc.edit(&c)
				var out bytes.Buffer
				if err := run(&c, &out); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if out.Len() == 0 {
					t.Fatalf("%s: printed nothing", name)
				}
				outputs[name] = out.Bytes()
			}
			want := outputs["store"]
			for _, name := range []string{"one-server", "two-servers"} {
				if !bytes.Equal(outputs[name], want) {
					t.Errorf("%s printed %d bytes, -store printed %d", name, len(outputs[name]), len(want))
				}
			}
			if tc.name == "json-unlimited" {
				var records []json.RawMessage
				if err := json.Unmarshal(want, &records); err != nil {
					t.Fatal(err)
				}
				if len(records) != fixtureEvents {
					t.Fatalf("-limit 0 printed %d records, want all %d", len(records), fixtureEvents)
				}
			}
		})
	}
}

// TestFigure4EmptyStore: -figure4 has one empty-store message, whether
// the empty answer comes from a store or a server list.
func TestFigure4EmptyStore(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	for _, d := range dirs {
		writeStore(t, d, nil)
	}
	list := fmt.Sprintf("%s,%s", serveStore(t, dirs[0]), serveStore(t, dirs[1]))
	for _, c := range []config{{storeDir: dirs[0]}, {server: list}} {
		c.figure4, c.every = true, 30
		var out bytes.Buffer
		if err := run(&c, &out); err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != "(empty store)\n" {
			t.Fatalf("%+v: printed %q", c, got)
		}
	}
}
