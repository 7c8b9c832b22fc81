package topology

import (
	"math/rand"
	"net/netip"
	"testing"

	"bgpblackholing/internal/bgp"
)

// originScan is the linear reference for OriginOf: the owner of the
// longest aggregate containing p's address, over the ASes in Order,
// the first in Order winning ties.
func originScan(t *Topology, p netip.Prefix) bgp.ASN {
	best := bgp.ASN(0)
	bestBits := -1
	for _, asn := range t.Order {
		for _, agg := range t.ASes[asn].Prefixes {
			if agg.Addr().Is4() == p.Addr().Is4() && agg.Contains(p.Addr()) && agg.Bits() > bestBits {
				best, bestBits = asn, agg.Bits()
			}
		}
	}
	return best
}

// randAddrIn draws an address inside agg.
func randAddrIn(rng *rand.Rand, agg netip.Prefix) netip.Addr {
	b := agg.Masked().Addr().As16()
	off := 128 - agg.Addr().BitLen()
	for i := agg.Bits(); i < agg.Addr().BitLen(); i++ {
		if rng.Intn(2) == 1 {
			j := off + i
			b[j>>3] |= 1 << (7 - j&7)
		}
	}
	a := netip.AddrFrom16(b)
	if agg.Addr().Is4() {
		a = a.Unmap()
	}
	return a
}

// originQueries returns every aggregate of every AS (Order or not),
// host routes inside each, and random prefixes shorter and longer than
// each, plus random prefixes anywhere in both families.
func originQueries(t *Topology, rng *rand.Rand) []netip.Prefix {
	asns := make([]bgp.ASN, 0, len(t.ASes))
	for asn := range t.ASes {
		asns = append(asns, asn)
	}
	SortASNs(asns)
	var qs []netip.Prefix
	for _, asn := range asns {
		for _, agg := range t.ASes[asn].Prefixes {
			if !agg.IsValid() {
				continue
			}
			width := agg.Addr().BitLen()
			qs = append(qs, agg,
				netip.PrefixFrom(agg.Masked().Addr(), width),
				netip.PrefixFrom(randAddrIn(rng, agg), width),
				netip.PrefixFrom(randAddrIn(rng, agg), rng.Intn(agg.Bits()+1)).Masked(),
				netip.PrefixFrom(randAddrIn(rng, agg), agg.Bits()+rng.Intn(width-agg.Bits()+1)).Masked())
		}
	}
	for i := 0; i < 500; i++ {
		var b [16]byte
		rng.Read(b[:])
		a := netip.AddrFrom16(b)
		if i%2 == 0 {
			a = netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3]})
		}
		qs = append(qs, netip.PrefixFrom(a, rng.Intn(a.BitLen()+1)).Masked())
	}
	return qs
}

// nestedWorld is a hand-built topology of nested aggregates owned by
// different ASes: a tie on one aggregate, a more-specific sharing its
// covering aggregate's address, an unmasked aggregate, an invalid one,
// and an AS missing from Order whose aggregates must never answer.
func nestedWorld() *Topology {
	t := &Topology{ASes: map[bgp.ASN]*AS{}}
	add := func(asn bgp.ASN, inOrder bool, ps ...netip.Prefix) {
		t.ASes[asn] = &AS{ASN: asn, Prefixes: ps}
		if inOrder {
			t.Order = append(t.Order, asn)
		}
	}
	mp := netip.MustParsePrefix
	add(1, true, mp("10.0.0.0/8"), mp("2001:db8::/32"))
	add(2, true, mp("10.1.0.0/16"))
	add(3, true, mp("10.1.2.0/24"), mp("2001:db8:1::/48"))
	add(4, true, mp("10.1.0.0/16")) // ties with AS 2, which comes first
	add(5, false, mp("10.1.2.128/25"), mp("2001:db8:1:2::/64"))
	add(6, true, mp("10.1.0.0/20"), netip.PrefixFrom(netip.MustParseAddr("10.9.1.7"), 16))
	add(7, true, netip.Prefix{}, mp("192.0.2.0/24"))
	return t
}

// TestOriginOfMatchesScan checks the trie-backed OriginOf against the
// linear scan it replaced, on generated worlds at the SmallOptions and
// DefaultOptions sizes and on a hand-built nested topology.
func TestOriginOfMatchesScan(t *testing.T) {
	worlds := map[string]func() *Topology{
		"small":   func() *Topology { return smallWorld(t) },
		"default": func() *Topology { return mustGenerate(t, DefaultConfig()) },
		"nested":  nestedWorld,
	}
	for name, build := range worlds {
		t.Run(name, func(t *testing.T) {
			topo := build()
			rng := rand.New(rand.NewSource(9))
			qs := originQueries(topo, rng)
			if name == "nested" {
				// Not valid prefixes, but their addresses still resolve.
				qs = append(qs, netip.Prefix{},
					netip.PrefixFrom(netip.MustParseAddr("10.1.2.3"), 40),
					netip.PrefixFrom(netip.MustParseAddr("::ffff:10.1.2.3"), 128))
			}
			for _, q := range qs {
				if got, want := topo.OriginOf(q), originScan(topo, q); got != want {
					t.Fatalf("OriginOf(%v) = %d, scan says %d", q, got, want)
				}
			}
			t.Logf("%d queries", len(qs))
		})
	}

	topo := nestedWorld()
	for q, want := range map[string]bgp.ASN{
		"10.1.0.0/16":     6, // the /20 at the same address is longer
		"10.1.128.0/17":   2, // tie with AS 4 goes to AS 2
		"10.1.2.200/32":   3, // AS 5's /25 is not in Order
		"10.9.200.0/24":   6, // the unmasked aggregate counts as 10.9.0.0/16
		"2001:db8:1::/64": 3,
		"11.0.0.0/8":      0,
	} {
		if got := topo.OriginOf(netip.MustParsePrefix(q)); got != want {
			t.Errorf("OriginOf(%s) = %d, want %d", q, got, want)
		}
	}
}

func mustGenerate(t testing.TB, cfg Config) *Topology {
	t.Helper()
	topo, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// hostQueries returns a host route inside every aggregate of Order, the
// shape replay asks OriginOf for.
func hostQueries(t *Topology) []netip.Prefix {
	var qs []netip.Prefix
	for _, asn := range t.Order {
		for _, agg := range t.ASes[asn].Prefixes {
			qs = append(qs, netip.PrefixFrom(agg.Addr().Next(), agg.Addr().BitLen()))
		}
	}
	return qs
}

// TestOriginOfDoesNotAllocate pins the replay hot path's origin lookup
// as allocation free.
func TestOriginOfDoesNotAllocate(t *testing.T) {
	topo := smallWorld(t)
	qs := hostQueries(topo)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		topo.OriginOf(qs[i%len(qs)])
		i++
	}); n != 0 {
		t.Fatalf("OriginOf allocates %.1f times per call", n)
	}
}

// BenchmarkOriginOf measures one origin lookup of a host route in the
// full-size world.
func BenchmarkOriginOf(b *testing.B) {
	topo := mustGenerate(b, DefaultConfig())
	qs := hostQueries(topo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.OriginOf(qs[i%len(qs)])
	}
}
