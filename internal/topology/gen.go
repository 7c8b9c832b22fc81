package topology

import (
	"fmt"
	"math/rand"
	"net/netip"

	"bgpblackholing/internal/bgp"
)

// Config sizes the synthetic Internet. The zero value is unusable; use
// DefaultConfig (paper-scale AS population) or DefaultConfig().Scaled(f)
// for a smaller world in tests.
type Config struct {
	// Seed drives all randomness; identical seeds produce identical
	// topologies.
	Seed int64

	// AS population by role.
	NTier1      int // top clique (13 in the paper's dictionary)
	NTransit    int // transit/access providers below the clique
	NContent    int // content providers / hosters
	NEducation  int // education/research/not-for-profit
	NEnterprise int // enterprises
	NStub       int // stub access networks (eyeball customers)

	// NIXPs is the number of IXPs; NBigIXPs of them are large hubs with
	// hundreds of members (DE-CIX, Equinix, HK-IX in the paper).
	NIXPs    int
	NBigIXPs int

	// Documented blackhole-community providers per type (Table 2) and
	// additionally inferred/undocumented ones (Table 2 parentheses).
	DocBlackholing   map[Kind]int
	UndocBlackholing map[Kind]int
	// NBlackholingIXPs of the IXPs offer the service (49 in the paper);
	// NRFC7999IXPs of those use the standard 65535:666 community (47).
	NBlackholingIXPs int
	NRFC7999IXPs     int

	// FracNoPeeringDB is the fraction of ASes without a usable PeeringDB
	// record, classified via the CAIDA fallback instead.
	FracNoPeeringDB float64
	// FracFilterMoreSpecifics is the fraction of ASes enforcing the
	// no-more-specific-than-/24 import policy for untagged routes.
	FracFilterMoreSpecifics float64
	// FracStripCommunities is the fraction of ASes stripping communities
	// on export.
	FracStripCommunities float64
	// FracIRRRegistered is the fraction of ASes with proper IRR route
	// objects.
	FracIRRRegistered float64

	// AdoptionDays spreads blackholing-service adoption over this many
	// days of the simulated timeline, reproducing the Fig 4(a) growth.
	AdoptionDays int
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		Seed:        42,
		NTier1:      13,
		NTransit:    450,
		NContent:    330,
		NEducation:  80,
		NEnterprise: 160,
		NStub:       700,
		NIXPs:       111,
		NBigIXPs:    3,
		DocBlackholing: map[Kind]int{
			KindTransitAccess:        198,
			KindContent:              23,
			KindEducationResearchNfP: 15,
			KindEnterprise:           8,
			KindUnknown:              14,
		},
		UndocBlackholing: map[Kind]int{
			KindTransitAccess:        81,
			KindContent:              14,
			KindEducationResearchNfP: 1,
			KindEnterprise:           3,
			KindUnknown:              3,
		},
		NBlackholingIXPs:        49,
		NRFC7999IXPs:            47,
		FracNoPeeringDB:         0.35,
		FracFilterMoreSpecifics: 0.85,
		FracStripCommunities:    0.15,
		FracIRRRegistered:       0.85,
		AdoptionDays:            850, // Dec 2014 – Mar 2017
	}
}

// Scaled returns a copy of the config with all population counts
// multiplied by f (minimum 1 where the original was positive).
func (c Config) Scaled(f float64) Config {
	s := func(n int) int {
		if n == 0 {
			return 0
		}
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	out := c
	out.NTier1 = s(c.NTier1)
	out.NTransit = s(c.NTransit)
	out.NContent = s(c.NContent)
	out.NEducation = s(c.NEducation)
	out.NEnterprise = s(c.NEnterprise)
	out.NStub = s(c.NStub)
	out.NIXPs = s(c.NIXPs)
	out.NBigIXPs = s(c.NBigIXPs)
	out.DocBlackholing = map[Kind]int{}
	out.UndocBlackholing = map[Kind]int{}
	for k, v := range c.DocBlackholing {
		out.DocBlackholing[k] = s(v)
	}
	for k, v := range c.UndocBlackholing {
		out.UndocBlackholing[k] = s(v)
	}
	out.NBlackholingIXPs = s(c.NBlackholingIXPs)
	out.NRFC7999IXPs = s(c.NRFC7999IXPs)
	if out.NRFC7999IXPs > out.NBlackholingIXPs {
		out.NRFC7999IXPs = out.NBlackholingIXPs
	}
	if out.NBlackholingIXPs > out.NIXPs {
		out.NBlackholingIXPs = out.NIXPs
	}
	return out
}

// providerCountries weights the RIR country distribution of blackholing
// providers (Fig 6a: Russia, USA and Germany lead).
var providerCountries = []struct {
	code   string
	weight int
}{
	{"RU", 45}, {"US", 40}, {"DE", 32}, {"BR", 14}, {"UA", 13},
	{"PL", 12}, {"NL", 11}, {"GB", 10}, {"FR", 9}, {"IT", 8},
	{"CZ", 7}, {"SE", 7}, {"CH", 6}, {"RO", 6}, {"ES", 5},
	{"JP", 5}, {"SG", 5}, {"HK", 4}, {"CN", 4}, {"AU", 4},
	{"CA", 4}, {"ZA", 3}, {"IN", 3}, {"TR", 3}, {"AR", 2},
	{"MX", 2}, {"ID", 2}, {"KE", 1}, {"NG", 1}, {"EG", 1},
}

func pickCountry(r *rand.Rand) string {
	total := 0
	for _, c := range providerCountries {
		total += c.weight
	}
	n := r.Intn(total)
	for _, c := range providerCountries {
		n -= c.weight
		if n < 0 {
			return c.code
		}
	}
	return "US"
}

// prefixAllocator hands out non-overlapping /16 blocks from clean
// unicast space, skipping every bogon first octet.
type prefixAllocator struct{ next int }

var skipOctets = map[int]bool{100: true, 127: true, 169: true, 172: true, 192: true, 198: true, 203: true}

func (p *prefixAllocator) block16() netip.Prefix {
	for {
		octet1 := 24 + p.next/256
		octet2 := p.next % 256
		p.next++
		if octet1 >= 224 {
			panic("topology: address space exhausted")
		}
		if skipOctets[octet1] {
			p.next += 256 - octet2
			continue
		}
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(octet1), byte(octet2), 0, 0}), 16)
	}
}

// Generate builds a deterministic synthetic Internet from the config.
func Generate(cfg Config) (*Topology, error) {
	r := rand.New(rand.NewSource(cfg.Seed))
	t := &Topology{
		ASes:          map[bgp.ASN]*AS{},
		routeServerOf: map[bgp.ASN]*IXP{},
	}
	alloc := &prefixAllocator{}

	addAS := func(kind Kind, tier1 bool) *AS {
		asn := bgp.ASN(1000 + len(t.Order)*3 + r.Intn(3))
		for t.ASes[asn] != nil {
			asn++
		}
		as := &AS{
			ASN:                  asn,
			DeclaredKind:         kind,
			CAIDAKind:            kind,
			Country:              pickCountry(r),
			Tier1:                tier1,
			FiltersMoreSpecifics: r.Float64() < cfg.FracFilterMoreSpecifics,
			StripsCommunities:    r.Float64() < cfg.FracStripCommunities,
			HasIRRRouteObjects:   r.Float64() < cfg.FracIRRRegistered,
		}
		if r.Float64() < cfg.FracNoPeeringDB {
			as.DeclaredKind = KindUnknown
			if kind == KindUnknown {
				// Truly unknown: CAIDA cannot classify either.
				as.CAIDAKind = KindUnknown
			}
		}
		// Primary aggregate plus a few more-specific allocations.
		primary := alloc.block16()
		as.Prefixes = append(as.Prefixes, primary)
		extra := r.Intn(3)
		if kind == KindContent {
			extra = 1 + r.Intn(5)
		}
		base := primary.Addr().As4()
		for i := 0; i < extra; i++ {
			sub := netip.PrefixFrom(netip.AddrFrom4([4]byte{base[0], base[1], byte(64 + i*16), 0}), 20)
			as.Prefixes = append(as.Prefixes, sub)
		}
		// Roughly a third of networks also originate an IPv6 aggregate;
		// IPv4 dominates the datasets (96%+ in Table 1).
		if r.Float64() < 0.35 {
			id := len(t.Order)
			v6 := netip.PrefixFrom(netip.AddrFrom16([16]byte{0x2a, 0x00, byte(id >> 8), byte(id)}), 32)
			as.Prefixes = append(as.Prefixes, v6)
		}
		t.ASes[asn] = as
		t.Order = append(t.Order, asn)
		return as
	}

	// 1. The Tier-1 clique.
	var tier1 []*AS
	for i := 0; i < cfg.NTier1; i++ {
		tier1 = append(tier1, addAS(KindTransitAccess, true))
	}
	for i, a := range tier1 {
		for _, b := range tier1[i+1:] {
			a.Peers = append(a.Peers, b.ASN)
			b.Peers = append(b.Peers, a.ASN)
		}
	}

	// 2. Transit/access hierarchy with preferential attachment.
	var transit []*AS
	transit = append(transit, tier1...)
	attach := func(as *AS) {
		nProv := 1 + r.Intn(3)
		for i := 0; i < nProv && i < len(transit); i++ {
			// Preferential attachment: earlier (bigger) transit ASes are
			// more likely providers.
			idx := int(float64(len(transit)) * r.Float64() * r.Float64())
			prov := transit[idx]
			if prov.ASN == as.ASN || t.Rel(as.ASN, prov.ASN) != RelNone {
				continue
			}
			as.Providers = append(as.Providers, prov.ASN)
			prov.Customers = append(prov.Customers, as.ASN)
		}
		// Guarantee connectivity.
		if len(as.Providers) == 0 {
			prov := transit[r.Intn(len(transit))]
			if prov.ASN != as.ASN {
				as.Providers = append(as.Providers, prov.ASN)
				prov.Customers = append(prov.Customers, as.ASN)
			} else {
				prov = tier1[0]
				as.Providers = append(as.Providers, prov.ASN)
				prov.Customers = append(prov.Customers, as.ASN)
			}
		}
	}
	for i := 0; i < cfg.NTransit; i++ {
		as := addAS(KindTransitAccess, false)
		attach(as)
		transit = append(transit, as)
	}
	// Lateral peering among mid-tier transit.
	for _, as := range transit[cfg.NTier1:] {
		n := r.Intn(3)
		for i := 0; i < n; i++ {
			other := transit[cfg.NTier1+r.Intn(len(transit)-cfg.NTier1)]
			if other.ASN == as.ASN || t.Rel(as.ASN, other.ASN) != RelNone {
				continue
			}
			as.Peers = append(as.Peers, other.ASN)
			other.Peers = append(other.Peers, as.ASN)
		}
	}

	// 3. Edge networks.
	edgeKinds := []struct {
		kind Kind
		n    int
	}{
		{KindContent, cfg.NContent},
		{KindEducationResearchNfP, cfg.NEducation},
		{KindEnterprise, cfg.NEnterprise},
		{KindTransitAccess, cfg.NStub}, // stub access/eyeball networks
	}
	var edges []*AS
	for _, ek := range edgeKinds {
		for i := 0; i < ek.n; i++ {
			as := addAS(ek.kind, false)
			attach(as)
			edges = append(edges, as)
		}
	}

	// 4. IXPs: route servers, peering LANs, members with same-country bias.
	nonStub := append(append([]*AS{}, transit...), edges...)
	for i := 0; i < cfg.NIXPs; i++ {
		lanOctet2 := i % 256
		lanOctet1 := 23 // reserved /8 for IXP LANs
		x := &IXP{
			ID:              i,
			Name:            fmt.Sprintf("IXP-%03d", i),
			Country:         pickCountry(r),
			RouteServerASN:  bgp.ASN(59000 + i),
			InsertsRSASN:    r.Float64() < 0.5,
			PeeringLAN:      netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(lanOctet1), byte(lanOctet2), 0, 0}), 22),
			HasPCHCollector: i < cfg.NIXPs, // assigned properly below
		}
		nMembers := 20 + r.Intn(80)
		if i < cfg.NBigIXPs {
			nMembers = 300 + r.Intn(200)
		}
		if nMembers > len(nonStub) {
			nMembers = len(nonStub)
		}
		seen := map[bgp.ASN]bool{}
		for len(x.Members) < nMembers {
			cand := nonStub[r.Intn(len(nonStub))]
			// Same-country bias: prefer candidates in the IXP's country.
			if cand.Country != x.Country && r.Float64() < 0.5 {
				cand = nonStub[r.Intn(len(nonStub))]
			}
			if seen[cand.ASN] {
				// Dense worlds may not have enough distinct candidates.
				if len(seen) >= len(nonStub) {
					break
				}
				continue
			}
			seen[cand.ASN] = true
			x.Members = append(x.Members, cand.ASN)
			cand.IXPs = append(cand.IXPs, x.ID)
		}
		// Bilateral/multilateral peering: each member peers with a few
		// co-members (bounded to keep the graph sparse).
		for _, m := range x.Members {
			k := 2 + r.Intn(5)
			for j := 0; j < k; j++ {
				o := x.Members[r.Intn(len(x.Members))]
				if o == m || t.Rel(m, o) != RelNone {
					continue
				}
				t.ASes[m].Peers = append(t.ASes[m].Peers, o)
				t.ASes[o].Peers = append(t.ASes[o].Peers, m)
			}
		}
		t.IXPs = append(t.IXPs, x)
		t.routeServerOf[x.RouteServerASN] = x
	}
	// PCH operates collectors at all IXPs in our world model; the
	// collector layer decides which feeds it actually uses.
	for _, x := range t.IXPs {
		x.HasPCHCollector = true
	}

	// 5. Blackholing services.
	assignServices(t, cfg, r, transit, edges)

	// 6. Ordinary (non-blackhole) routing communities for Fig 2: transit
	// ASes tag routes with relationship/TE communities, applied to
	// /24-or-less-specific prefixes by the collector layer.
	for _, as := range transit {
		n := 2 + r.Intn(5)
		for i := 0; i < n; i++ {
			as.RoutingCommunities = append(as.RoutingCommunities,
				bgp.MakeCommunity(uint16(as.ASN), uint16(100+i*10)))
		}
	}
	// The Level3 case: the first Tier-1 also tags peering routes with
	// ASN:666 — the value most providers use for blackholing — while its
	// real blackhole community is ASN:9999 (§4.1).
	if len(transit) > 0 {
		l3 := transit[0]
		l3.RoutingCommunities = append(l3.RoutingCommunities, bgp.MakeCommunity(uint16(l3.ASN), 666))
	}

	// Freeze the dense AS index now that the AS population is final, so
	// the propagation hot path never pays the lazy build.
	t.buildIndex()

	return t, t.Validate()
}

// communityPatterns are the low-16-bit values used for blackhole
// communities; ASN:666 dominates (51% in the paper).
var communityPatterns = []struct {
	low    uint16
	weight int
}{
	{666, 51}, {66, 14}, {999, 12}, {9999, 8}, {666 + 1, 5}, {888, 5}, {0, 5},
}

func pickCommunityLow(r *rand.Rand) uint16 {
	total := 0
	for _, p := range communityPatterns {
		total += p.weight
	}
	n := r.Intn(total)
	for _, p := range communityPatterns {
		n -= p.weight
		if n < 0 {
			if p.low == 0 {
				// Idiosyncratic value, kept clear of the 100-199 range
				// operators use for relationship/TE tagging.
				return uint16(200 + r.Intn(800))
			}
			return p.low
		}
	}
	return 666
}

func assignServices(t *Topology, cfg Config, r *rand.Rand, transit, edges []*AS) {
	// Bucket candidate ASes per effective kind. Tier-1s first so that all
	// of them end up offering blackholing (13 Tier-1 ISPs in the paper).
	buckets := map[Kind][]*AS{}
	for _, as := range transit {
		buckets[KindTransitAccess] = append(buckets[KindTransitAccess], as)
	}
	for _, as := range edges {
		k := as.Kind()
		if k == KindTransitAccess {
			continue // stubs do not offer blackholing
		}
		buckets[k] = append(buckets[k], as)
	}

	newService := func(as *AS, doc DocSource) *BlackholeService {
		low := pickCommunityLow(r)
		svc := &BlackholeService{
			Communities:             []bgp.Community{bgp.MakeCommunity(uint16(as.ASN), low)},
			Doc:                     doc,
			MaxPrefixLen:            32,
			MinPrefixLen:            24,
			RequiresIRRRegistration: r.Float64() < 0.3,
			RequiresRPKI:            r.Float64() < 0.1,
		}
		// Some providers add fine-grained regional communities.
		if r.Float64() < 0.1 {
			svc.Communities = append(svc.Communities,
				bgp.MakeCommunity(uint16(as.ASN), low+1),
				bgp.MakeCommunity(uint16(as.ASN), low+2))
			svc.RegionalScopes = []string{"Europe", "North America"}
		}
		return svc
	}

	assign := func(kind Kind, nDoc, nUndoc int) {
		cands := buckets[kind]
		idx := 0
		docSources := []DocSource{DocIRR, DocIRR, DocIRR, DocWeb, DocWeb} // IRR contributes most (§4.1)
		for i := 0; i < nDoc && idx < len(cands); i, idx = i+1, idx+1 {
			as := cands[idx]
			doc := docSources[r.Intn(len(docSources))]
			if i < 5 && kind == KindTransitAccess {
				doc = DocPrivate // 5 networks via private communication
			}
			as.Blackholing = newService(as, doc)
		}
		for i := 0; i < nUndoc && idx < len(cands); i, idx = i+1, idx+1 {
			as := cands[idx]
			as.Blackholing = newService(as, DocNone)
		}
	}
	for _, kind := range []Kind{KindTransitAccess, KindContent, KindEducationResearchNfP, KindEnterprise} {
		assign(kind, cfg.DocBlackholing[kind], cfg.UndocBlackholing[kind])
	}
	// "Unknown" providers: transit ASes without usable records.
	unknownCands := buckets[KindTransitAccess]
	n := cfg.DocBlackholing[KindUnknown] + cfg.UndocBlackholing[KindUnknown]
	picked := 0
	for _, as := range unknownCands {
		if picked >= n {
			break
		}
		if as.Blackholing == nil && as.Kind() == KindUnknown {
			doc := DocIRR
			if picked >= cfg.DocBlackholing[KindUnknown] {
				doc = DocNone
			}
			as.Blackholing = newService(as, doc)
			picked++
		}
	}
	// Fall back to arbitrary unassigned transit ASes flagged unknown.
	for _, as := range unknownCands {
		if picked >= n {
			break
		}
		if as.Blackholing == nil {
			as.DeclaredKind = KindUnknown
			as.CAIDAKind = KindUnknown
			doc := DocIRR
			if picked >= cfg.DocBlackholing[KindUnknown] {
				doc = DocNone
			}
			as.Blackholing = newService(as, doc)
			picked++
		}
	}

	// One large transit AS repurposes ASN:666 for peering-route tagging
	// and blackholes via ASN:9999 instead (the Level3 case, §4.1): make
	// it the first Tier-1.
	if len(transit) > 0 {
		l3 := transit[0]
		if l3.Blackholing == nil {
			l3.Blackholing = newService(l3, DocIRR)
		}
		l3.Blackholing.Communities = []bgp.Community{bgp.MakeCommunity(uint16(l3.ASN), 9999)}
		l3.Blackholing.Doc = DocIRR
	}

	// A couple of providers share communities whose high bits are not a
	// public ASN (0:666), resolvable only via AS-path checks (§4.2).
	shared := bgp.MakeCommunity(0, 666)
	nShared := 0
	for _, as := range transit {
		if as.Blackholing != nil && !as.Tier1 && nShared < 3 {
			as.Blackholing.Communities = append(as.Blackholing.Communities, shared)
			as.Blackholing.Shared = true
			nShared++
		}
	}

	// One provider adopted the large-community format for blackholing
	// (1 of 307 in the paper).
	for _, as := range transit {
		if as.Blackholing != nil && !as.Tier1 {
			as.Blackholing.LargeCommunities = []bgp.LargeCommunity{{Global: uint32(as.ASN), Local1: 666, Local2: 0}}
			break
		}
	}

	// IXP services: NRFC7999IXPs use 65535:666, the remainder share a
	// legacy community; almost all publish a blackholing IP (§4.1).
	for i := 0; i < cfg.NBlackholingIXPs && i < len(t.IXPs); i++ {
		x := t.IXPs[i]
		comm := bgp.CommunityBlackhole
		if i >= cfg.NRFC7999IXPs {
			comm = bgp.MakeCommunity(0, 666)
		}
		lan := x.PeeringLAN.Addr().As4()
		x.Blackholing = &BlackholeService{
			Communities:             []bgp.Community{comm},
			Doc:                     DocWeb,
			MaxPrefixLen:            32,
			MinPrefixLen:            24,
			RequiresIRRRegistration: r.Float64() < 0.5,
			Shared:                  true,
		}
		x.BlackholingIPv4 = netip.AddrFrom4([4]byte{lan[0], lan[1], 0, 66})
		x.BlackholingIPv6 = netip.MustParseAddr(fmt.Sprintf("2001:db8:%x::dead:beef", x.ID))
	}
}
