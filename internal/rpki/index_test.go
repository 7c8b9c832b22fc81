package rpki

import (
	"math/rand"
	"net/netip"
	"testing"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/topology"
)

// randomRegistry builds a registry of n random ROAs, mixing IPv4 and
// IPv6 with clustered address bytes so covering chains actually occur.
func randomRegistry(r *rand.Rand, n int) *Registry {
	reg := &Registry{}
	for i := 0; i < n; i++ {
		reg.Add(randomROA(r))
	}
	return reg
}

func randomROA(r *rand.Rand) ROA {
	if r.Intn(2) == 0 {
		bits := r.Intn(33)
		a := netip.AddrFrom4([4]byte{byte(10 + r.Intn(3)), byte(r.Intn(4)), byte(r.Intn(4)), byte(r.Intn(256))})
		p, _ := a.Prefix(bits)
		maxLen := bits + r.Intn(33-bits)
		return ROA{Prefix: p, MaxLength: maxLen, ASN: bgp.ASN(1 + r.Intn(8))}
	}
	bits := r.Intn(129)
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	b[2], b[3] = byte(r.Intn(3)), byte(r.Intn(4))
	b[7] = byte(r.Intn(4))
	b[15] = byte(r.Intn(256))
	p, _ := netip.AddrFrom16(b).Prefix(bits)
	maxLen := bits + r.Intn(129-bits)
	return ROA{Prefix: p, MaxLength: maxLen, ASN: bgp.ASN(1 + r.Intn(8))}
}

// randomQuery draws a prefix from the same clustered space, so queries
// hit the registry often but not always.
func randomQuery(r *rand.Rand) netip.Prefix {
	roa := randomROA(r)
	return roa.Prefix
}

// TestCoveringROAsMatchesScan property-tests the indexed covering
// lookup against the naive O(n) definition over random registries.
func TestCoveringROAsMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		reg := randomRegistry(r, 1+r.Intn(120))
		roas := reg.ROAs()
		for q := 0; q < 40; q++ {
			p := randomQuery(r)
			got := reg.CoveringROAs(p)
			// Naive definition: every registered ROA that covers p.
			want := map[ROA]int{}
			for _, roa := range roas {
				if roa.Covers(p) {
					want[ROA{Prefix: roa.Prefix.Masked(), MaxLength: roa.MaxLength, ASN: roa.ASN}]++
				}
			}
			gotSet := map[ROA]int{}
			for _, roa := range got {
				gotSet[roa]++
			}
			if len(gotSet) != len(want) {
				t.Fatalf("trial %d: CoveringROAs(%s) = %v, want %v", trial, p, got, want)
			}
			for roa, n := range want {
				if gotSet[roa] != n {
					t.Fatalf("trial %d: CoveringROAs(%s): %v count %d, want %d", trial, p, roa, gotSet[roa], n)
				}
			}
		}
	}
}

// TestValidateMatchesScan property-tests the indexed Validate against
// the retained linear-scan oracle, IPv4 and IPv6, including origins
// present and absent from the registry.
func TestValidateMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		reg := randomRegistry(r, 1+r.Intn(120))
		for q := 0; q < 60; q++ {
			p := randomQuery(r)
			origin := bgp.ASN(1 + r.Intn(10)) // 9, 10 never appear in ROAs
			got := reg.Validate(p, origin)
			want := reg.validateScan(p, origin)
			if got != want {
				t.Fatalf("trial %d: Validate(%s, AS%d) = %v, want %v (scan)", trial, p, origin, got, want)
			}
		}
	}
}

// TestIndexInvalidatedByAdd proves the index rebuilds after Add: a
// lookup, a mutation, and a second lookup that must see the new ROA.
func TestIndexInvalidatedByAdd(t *testing.T) {
	reg := &Registry{}
	reg.Add(ROA{Prefix: netip.MustParsePrefix("10.0.0.0/16"), MaxLength: 24, ASN: 1})
	p := netip.MustParsePrefix("10.0.1.0/24")
	if got := reg.Validate(p, 2); got != Invalid {
		t.Fatalf("pre-add Validate = %v, want Invalid", got)
	}
	reg.Add(ROA{Prefix: netip.MustParsePrefix("10.0.0.0/16"), MaxLength: 24, ASN: 2})
	if got := reg.Validate(p, 2); got != Valid {
		t.Fatalf("post-add Validate = %v, want Valid", got)
	}
	if got := len(reg.CoveringROAs(p)); got != 2 {
		t.Fatalf("post-add CoveringROAs = %d entries, want 2", got)
	}
}

// TestInvalidROATolerated proves a malformed (zero-prefix) ROA neither
// panics the index build nor affects validation — the old linear scan
// ignored it, and so must the indexed path.
func TestInvalidROATolerated(t *testing.T) {
	reg := &Registry{}
	reg.Add(ROA{ASN: 1}) // zero-value, invalid prefix
	reg.Add(ROA{Prefix: netip.MustParsePrefix("10.0.0.0/16"), MaxLength: 32, ASN: 2})
	p := netip.MustParsePrefix("10.0.0.1/32")
	if got := reg.Validate(p, 2); got != Valid {
		t.Fatalf("Validate = %v, want Valid", got)
	}
	if got := reg.Validate(p, 1); got != Invalid {
		t.Fatalf("Validate wrong-origin = %v, want Invalid", got)
	}
	if got := len(reg.CoveringROAs(p)); got != 1 {
		t.Fatalf("CoveringROAs = %d entries, want 1", got)
	}
	if got := reg.Validate(netip.Prefix{}, 1); got != NotFound {
		t.Fatalf("Validate(invalid prefix) = %v, want NotFound", got)
	}
}

// TestStatsIPv6Primary covers the Stats host-prefix fix: an AS whose
// primary prefix is IPv6 must probe a /128 host route, not an invalid
// netip.PrefixFrom(v6addr, 32), and classify as covered.
func TestStatsIPv6Primary(t *testing.T) {
	topo := &topology.Topology{
		ASes: map[bgp.ASN]*topology.AS{},
	}
	v6 := netip.MustParsePrefix("2001:db8:1::/48")
	v4 := netip.MustParsePrefix("10.9.0.0/16")
	topo.ASes[100] = &topology.AS{ASN: 100, Prefixes: []netip.Prefix{v6}}
	topo.ASes[200] = &topology.AS{ASN: 200, Prefixes: []netip.Prefix{v4}}
	topo.Order = []bgp.ASN{100, 200}

	reg := &Registry{}
	reg.Add(ROA{Prefix: v6, MaxLength: 128, ASN: 100}) // v6 host routes welcome
	reg.Add(ROA{Prefix: v4, MaxLength: 16, ASN: 200})  // v4 host routes stranded

	st := reg.Stats(topo)
	if st.ASesTotal != 2 {
		t.Fatalf("ASesTotal = %d, want 2", st.ASesTotal)
	}
	if st.ASesCovered != 2 {
		t.Fatalf("ASesCovered = %d, want 2 (the IPv6-primary AS was misclassified as uncovered)", st.ASesCovered)
	}
	if st.BlackholeFriendly != 1 || st.BlackholeStranded != 1 {
		t.Fatalf("friendly/stranded = %d/%d, want 1/1", st.BlackholeFriendly, st.BlackholeStranded)
	}
}

// validateScan is the O(n) reference implementation, the property-test
// oracle for the trie-backed Validate.
func (r *Registry) validateScan(p netip.Prefix, origin bgp.ASN) State {
	r.mu.RLock()
	defer r.mu.RUnlock()
	covered := false
	for _, roa := range r.roas {
		if !roa.Covers(p) {
			continue
		}
		covered = true
		if roa.ASN == origin && p.Bits() <= roa.MaxLength {
			return Valid
		}
	}
	if covered {
		return Invalid
	}
	return NotFound
}

// validateQueries builds a registry over a generated world and the
// announcements replay validates: every aggregate and a host route in
// it, each at its owner and at a foreign origin.
func validateQueries(tb testing.TB, scale float64) (*Registry, []netip.Prefix, []bgp.ASN) {
	tb.Helper()
	topo, err := topology.Generate(topology.DefaultConfig().Scaled(scale))
	if err != nil {
		tb.Fatal(err)
	}
	reg := Build(topo, DefaultBuildConfig())
	var ps []netip.Prefix
	var origins []bgp.ASN
	for i, asn := range topo.Order {
		foreign := topo.Order[(i+1)%len(topo.Order)]
		for _, p := range topo.AS(asn).Prefixes {
			host := netip.PrefixFrom(p.Addr().Next(), p.Addr().BitLen())
			ps = append(ps, p, host, p, host)
			origins = append(origins, asn, asn, foreign, foreign)
		}
	}
	return reg, ps, origins
}

// TestValidateDoesNotAllocate pins Validate, which runs per returned
// event on enriched queries, as allocation free.
func TestValidateDoesNotAllocate(t *testing.T) {
	reg, ps, origins := validateQueries(t, 0.15)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		reg.Validate(ps[i%len(ps)], origins[i%len(ps)])
		i++
	}); n != 0 {
		t.Fatalf("Validate allocates %.1f times per call", n)
	}
}

// BenchmarkRegistryValidate measures one origin validation against the
// registry of the full-size world.
func BenchmarkRegistryValidate(b *testing.B) {
	reg, ps, origins := validateQueries(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Validate(ps[i%len(ps)], origins[i%len(ps)])
	}
}
