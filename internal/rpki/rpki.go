// Package rpki implements the minimal Resource Public Key Infrastructure
// substrate §2 references: some blackholing providers "will accept
// announcements only via secure BGP using the RPKI". Route Origin
// Authorizations (ROAs) bind prefixes to origin ASes with a maximum
// accepted length; origin validation classifies an announcement as
// Valid, Invalid or NotFound (RFC 6811 semantics).
//
// The operationally interesting wrinkle for blackholing: a victim whose
// ROA caps maxLength at the aggregate's length (say /16 or /24) renders
// its own /32 blackhole announcements RPKI-Invalid — an RPKI-strict
// provider then rejects the mitigation request, another of the §10
// misconfiguration classes.
package rpki

import (
	"math/rand"
	"net/netip"
	"sort"
	"sync"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/prefixtrie"
	"bgpblackholing/internal/topology"
)

// State is the RFC 6811 origin-validation outcome.
type State int

// Validation states.
const (
	NotFound State = iota // no covering ROA
	Valid                 // covered, origin and length match
	Invalid               // covered, but origin or length mismatch
)

// String names the state.
func (s State) String() string {
	switch s {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	}
	return "not-found"
}

// ROA is one Route Origin Authorization.
type ROA struct {
	Prefix    netip.Prefix
	MaxLength int
	ASN       bgp.ASN
}

// Covers reports whether the ROA's prefix covers p.
func (r ROA) Covers(p netip.Prefix) bool {
	return r.Prefix.Addr().Is4() == p.Addr().Is4() &&
		r.Prefix.Bits() <= p.Bits() && r.Prefix.Contains(p.Addr())
}

// Registry is a validated ROA set. Validation answers from a prefix
// trie that Add fills as it goes, so a query-time caller never pays a
// linear scan per event. All methods are safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	roas []ROA

	// masked holds every ROA with a valid prefix, masked, in
	// registration order; trie postings index it. An invalid (zero)
	// prefix covers nothing, so it is registered but never indexed.
	masked []ROA
	trie   prefixtrie.Trie
}

// Add registers a ROA.
func (r *Registry) Add(roa ROA) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.roas = append(r.roas, roa)
	if roa.Prefix.IsValid() {
		roa.Prefix = roa.Prefix.Masked()
		r.trie.Insert(roa.Prefix, int32(len(r.masked)))
		r.masked = append(r.masked, roa)
	}
}

// Len returns the ROA count.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.roas)
}

// ROAs returns a snapshot of the registered ROAs.
func (r *Registry) ROAs() []ROA {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ROA, len(r.roas))
	copy(out, r.roas)
	return out
}

// CoveringROAs returns every ROA whose prefix covers p, prefixes
// masked, in (address, length) order and registration order within a
// prefix.
func (r *Registry) CoveringROAs(p netip.Prefix) []ROA {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []ROA
	for _, ords := range r.trie.Covering(p) {
		for _, i := range ords {
			out = append(out, r.masked[i])
		}
	}
	return out
}

// Validate classifies an announcement of prefix p with origin AS o.
// Per RFC 6811: Valid if any covering ROA matches origin and length;
// Invalid if covering ROAs exist but none matches; NotFound otherwise.
// It walks the trie's covering chain and does not allocate.
func (r *Registry) Validate(p netip.Prefix, origin bgp.ASN) State {
	r.mu.RLock()
	defer r.mu.RUnlock()
	state := NotFound
	for _, ords := range r.trie.Covering(p) {
		state = Invalid
		for _, i := range ords {
			if roa := r.masked[i]; roa.ASN == origin && p.Bits() <= roa.MaxLength {
				return Valid
			}
		}
	}
	return state
}

// ValidOrigin adapts the registry to the collector layer's validation
// hook: RPKI-strict providers accept only Valid announcements
// (NotFound is rejected too — strict providers demand a ROA).
func (r *Registry) ValidOrigin(p netip.Prefix, origin bgp.ASN) bool {
	return r.Validate(p, origin) == Valid
}

// BuildConfig parameterises registry synthesis.
type BuildConfig struct {
	Seed int64
	// Coverage is the fraction of ASes publishing ROAs.
	Coverage float64
	// FracBlackholeFriendly is the fraction of covered ASes whose ROAs
	// allow host routes (maxLength = 32/128); the rest cap maxLength at
	// the aggregate length, making their own /32 blackhole
	// announcements Invalid.
	FracBlackholeFriendly float64
}

// DefaultBuildConfig reflects mid-2010s RPKI deployment: partial
// coverage, and many ROAs minted without blackholing in mind.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{Seed: 42, Coverage: 0.35, FracBlackholeFriendly: 0.6}
}

// Build synthesises the registry for a topology.
func Build(topo *topology.Topology, cfg BuildConfig) *Registry {
	r := rand.New(rand.NewSource(cfg.Seed))
	reg := &Registry{}
	for _, asn := range topo.Order {
		if r.Float64() >= cfg.Coverage {
			continue
		}
		friendly := r.Float64() < cfg.FracBlackholeFriendly
		for _, p := range topo.AS(asn).Prefixes {
			maxLen := p.Bits()
			if friendly {
				if p.Addr().Is4() {
					maxLen = 32
				} else {
					maxLen = 128
				}
			}
			reg.Add(ROA{Prefix: p, MaxLength: maxLen, ASN: asn})
		}
	}
	sort.Slice(reg.roas, func(i, j int) bool {
		a, b := reg.roas[i], reg.roas[j]
		if a.Prefix.Addr() != b.Prefix.Addr() {
			return a.Prefix.Addr().Less(b.Prefix.Addr())
		}
		return a.Prefix.Bits() < b.Prefix.Bits()
	})
	return reg
}

// CoverageStats summarises a registry against a topology.
type CoverageStats struct {
	ASesCovered       int
	ASesTotal         int
	BlackholeFriendly int // covered ASes whose host routes validate
	BlackholeStranded int // covered ASes whose /32s are Invalid
}

// Stats computes coverage over the ASes' primary prefixes, probing each
// AS's host route (/32 or /128 by family) against the registry.
func (reg *Registry) Stats(topo *topology.Topology) CoverageStats {
	var st CoverageStats
	for _, asn := range topo.Order {
		st.ASesTotal++
		as := topo.AS(asn)
		if len(as.Prefixes) == 0 {
			continue
		}
		primary := as.Prefixes[0]
		host := netip.PrefixFrom(primary.Addr(), primary.Addr().BitLen())
		switch reg.Validate(host, asn) {
		case Valid:
			st.ASesCovered++
			st.BlackholeFriendly++
		case Invalid:
			st.ASesCovered++
			st.BlackholeStranded++
		}
	}
	return st
}
