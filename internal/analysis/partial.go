package analysis

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/topology"
)

// Mergeable partial aggregates. Each paper figure/table that the
// federated query layer serves has a Partial form obeying one law:
//
//	Finalize(Observe(events)) == Finalize(Merge(Observe(shard1), …))
//
// for any partition of the events into shards — computing the figure
// per shard and merging the partials yields exactly the single-store
// result (property-tested in partial_test.go). The trick is the same
// everywhere: the figures count *distinct* providers/users/prefixes,
// so the partial keeps the underlying sets (cheap: bounded by the
// distinct-entity count, not the event count) and merging is set
// union; only Finalize collapses sets to counts.

// ---------------------------------------------------------------------
// Figure 4

// Figure4Partial is the mergeable state behind Figure 4: per-day
// distinct-provider / distinct-user / distinct-prefix sets over a fixed
// [start, start+days) window. Partials merge only over identical
// windows — the federated router computes the global window from the
// shards' aggregated time bounds first, then asks every shard for
// partials over that same window.
type Figure4Partial struct {
	Start time.Time
	Days  int

	provs    []map[string]bool
	users    []map[bgp.ASN]bool
	prefixes []map[string]bool
}

// NewFigure4Partial returns an empty partial over [start, start+days).
func NewFigure4Partial(start time.Time, days int) *Figure4Partial {
	if days < 0 {
		days = 0
	}
	p := &Figure4Partial{
		Start:    start,
		Days:     days,
		provs:    make([]map[string]bool, days),
		users:    make([]map[bgp.ASN]bool, days),
		prefixes: make([]map[string]bool, days),
	}
	for i := 0; i < days; i++ {
		p.provs[i] = map[string]bool{}
		p.users[i] = map[bgp.ASN]bool{}
		p.prefixes[i] = map[string]bool{}
	}
	return p
}

// Observe credits ev to every day its span overlaps.
func (p *Figure4Partial) Observe(ev *core.Event) {
	d0 := floorDays(ev.Start.Sub(p.Start))
	d1 := floorDays(ev.End.Sub(p.Start))
	if d0 < 0 {
		d0 = 0
	}
	if d1 >= p.Days {
		d1 = p.Days - 1
	}
	prefix := ev.Prefix.String()
	for d := d0; d <= d1; d++ {
		for pr := range ev.Providers {
			p.provs[d][pr.String()] = true
		}
		for u := range ev.Users {
			p.users[d][u] = true
		}
		p.prefixes[d][prefix] = true
	}
}

// Merge unions o into p. The windows must match exactly.
func (p *Figure4Partial) Merge(o *Figure4Partial) error {
	if !o.Start.Equal(p.Start) || o.Days != p.Days {
		return fmt.Errorf("analysis: figure4 window mismatch: %v/%dd vs %v/%dd", p.Start, p.Days, o.Start, o.Days)
	}
	for d := 0; d < p.Days; d++ {
		for k := range o.provs[d] {
			p.provs[d][k] = true
		}
		for k := range o.users[d] {
			p.users[d][k] = true
		}
		for k := range o.prefixes[d] {
			p.prefixes[d][k] = true
		}
	}
	return nil
}

// Finalize collapses the sets to the daily series.
func (p *Figure4Partial) Finalize() []DailyPoint {
	if p.Days <= 0 {
		return nil
	}
	out := make([]DailyPoint, p.Days)
	for d := 0; d < p.Days; d++ {
		out[d] = DailyPoint{
			Day:       p.Start.Add(time.Duration(d) * 24 * time.Hour),
			Providers: len(p.provs[d]),
			Users:     len(p.users[d]),
			Prefixes:  len(p.prefixes[d]),
		}
	}
	return out
}

// Figure4Sets is the wire form of a Figure4Partial: per-day sorted
// entity lists, the shape a shard's /figure4?shape=sets endpoint
// returns so the router can union shards before counting. (Counts
// alone — the []DailyPoint shape — cannot merge: the same provider
// active on two shards must not count twice.)
type Figure4Sets struct {
	Start     time.Time  `json:"start"`
	Days      int        `json:"days"`
	Providers [][]string `json:"providers"`
	Users     [][]uint32 `json:"users"`
	Prefixes  [][]string `json:"prefixes"`
	// ShardsFailed counts a federation's direct shards that did not
	// answer or answered with a partial union of their own (a nested
	// federation counts once, however many of its shards failed) — the
	// sets cover what the rest returned. Omitted when zero, so complete
	// answers keep their historical shape.
	ShardsFailed int `json:"shards_failed,omitempty"`
}

// Sets exports the partial in wire form (sorted, deterministic).
func (p *Figure4Partial) Sets() Figure4Sets {
	s := Figure4Sets{
		Start:     p.Start,
		Days:      p.Days,
		Providers: make([][]string, p.Days),
		Users:     make([][]uint32, p.Days),
		Prefixes:  make([][]string, p.Days),
	}
	for d := 0; d < p.Days; d++ {
		s.Providers[d] = make([]string, 0, len(p.provs[d]))
		for k := range p.provs[d] {
			s.Providers[d] = append(s.Providers[d], k)
		}
		sort.Strings(s.Providers[d])
		s.Users[d] = make([]uint32, 0, len(p.users[d]))
		for u := range p.users[d] {
			s.Users[d] = append(s.Users[d], uint32(u))
		}
		slices.Sort(s.Users[d])
		s.Prefixes[d] = make([]string, 0, len(p.prefixes[d]))
		for k := range p.prefixes[d] {
			s.Prefixes[d] = append(s.Prefixes[d], k)
		}
		sort.Strings(s.Prefixes[d])
	}
	return s
}

// MergeSets unions a wire-form partial into p. The windows must match.
func (p *Figure4Partial) MergeSets(s Figure4Sets) error {
	if !s.Start.Equal(p.Start) || s.Days != p.Days {
		return fmt.Errorf("analysis: figure4 window mismatch: %v/%dd vs %v/%dd", p.Start, p.Days, s.Start, s.Days)
	}
	for d := 0; d < p.Days && d < len(s.Providers); d++ {
		for _, k := range s.Providers[d] {
			p.provs[d][k] = true
		}
	}
	for d := 0; d < p.Days && d < len(s.Users); d++ {
		for _, u := range s.Users[d] {
			p.users[d][bgp.ASN(u)] = true
		}
	}
	for d := 0; d < p.Days && d < len(s.Prefixes); d++ {
		for _, k := range s.Prefixes[d] {
			p.prefixes[d][k] = true
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Figure 8

// EventSkeleton is the minimal projection of an event that Figure 8
// (duration distributions, raw and 5-minute-grouped) depends on —
// grouping reads only the prefix and the time span. Seq carries the
// global closing order so a merged skeleton set finalizes in the same
// canonical order regardless of which shard contributed what.
type EventSkeleton struct {
	Seq          uint64       `json:"seq"`
	Prefix       netip.Prefix `json:"prefix"`
	Start        time.Time    `json:"start"`
	End          time.Time    `json:"end"`
	StartUnknown bool         `json:"start_unknown,omitempty"`
}

// Figure8Partial accumulates event skeletons; merging concatenates.
type Figure8Partial struct {
	Skeletons []EventSkeleton `json:"skeletons"`
}

// Observe records ev's skeleton.
func (p *Figure8Partial) Observe(ev *core.Event) {
	p.Skeletons = append(p.Skeletons, EventSkeleton{
		Seq:          ev.Seq,
		Prefix:       ev.Prefix,
		Start:        ev.Start,
		End:          ev.End,
		StartUnknown: ev.StartUnknown,
	})
}

// Merge appends o's skeletons.
func (p *Figure8Partial) Merge(o *Figure8Partial) {
	p.Skeletons = append(p.Skeletons, o.Skeletons...)
}

// Finalize reconstitutes synthetic events in canonical global order
// (end, seq, start, prefix — the federation merge key) and computes
// the two Figure 8 distributions.
func (p *Figure8Partial) Finalize(timeout time.Duration) (ungrouped, grouped []time.Duration) {
	sk := slices.Clone(p.Skeletons)
	sort.Slice(sk, func(i, j int) bool {
		a, b := &sk[i], &sk[j]
		if !a.End.Equal(b.End) {
			return a.End.Before(b.End)
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.Prefix.String() < b.Prefix.String()
	})
	events := make([]*core.Event, len(sk))
	for i, s := range sk {
		events[i] = &core.Event{
			Seq:          s.Seq,
			Prefix:       s.Prefix,
			Start:        s.Start,
			End:          s.End,
			StartUnknown: s.StartUnknown,
		}
	}
	return Figure8(events, timeout)
}

// ---------------------------------------------------------------------
// Tables 3 and 4

// visibilitySets is the distinct-entity state one source (platform,
// provider kind, or the ALL row) accumulates for the visibility tables.
type visibilitySets struct {
	providers map[core.ProviderRef]bool
	users     map[bgp.ASN]bool
	prefixes  map[netip.Prefix]bool
	direct    map[core.ProviderRef]bool
}

func newVisibilitySets() *visibilitySets {
	return &visibilitySets{
		providers: map[core.ProviderRef]bool{},
		users:     map[bgp.ASN]bool{},
		prefixes:  map[netip.Prefix]bool{},
		direct:    map[core.ProviderRef]bool{},
	}
}

func (s *visibilitySets) merge(o *visibilitySets) {
	for k := range o.providers {
		s.providers[k] = true
	}
	for k := range o.users {
		s.users[k] = true
	}
	for k := range o.prefixes {
		s.prefixes[k] = true
	}
	for k := range o.direct {
		s.direct[k] = true
	}
}

// Table3Partial is the mergeable state behind Table 3 (per-platform
// blackhole visibility). The uniqueness columns are computed only at
// Finalize, from the merged per-platform sets — per-shard "unique"
// counts would be wrong (an entity unique on shard A may also appear
// on shard B), which is exactly why the partial keeps sets.
type Table3Partial struct {
	deploy *collector.Deployment
	per    map[collector.Platform]*visibilitySets
	all    *visibilitySets
}

// NewTable3Partial returns an empty partial. deploy resolves the
// direct-feed column when non-nil (static deployment sessions);
// otherwise per-event DirectProviders evidence is used.
func NewTable3Partial(deploy *collector.Deployment) *Table3Partial {
	p := &Table3Partial{
		deploy: deploy,
		per:    map[collector.Platform]*visibilitySets{},
		all:    newVisibilitySets(),
	}
	for _, pl := range collector.Platforms() {
		p.per[pl] = newVisibilitySets()
	}
	return p
}

// isDirectFor resolves the direct-feed property for one provider.
func isDirectFor(deploy *collector.Deployment, p collector.Platform, pr core.ProviderRef, ev *core.Event) bool {
	if deploy == nil {
		return ev.DirectProviders[pr]
	}
	if pr.Kind == core.ProviderIXP {
		return deploy.HasRSFeed(p, pr.IXPID)
	}
	return deploy.HasDirectFeed(p, pr.ASN)
}

// Observe credits ev to the platforms that evidenced it.
func (p *Table3Partial) Observe(ev *core.Event) {
	for _, pl := range collector.Platforms() {
		if !ev.Platforms[pl] {
			continue
		}
		s := p.per[pl]
		for pr := range ev.ProvidersByPlatform[pl] {
			s.providers[pr] = true
			if isDirectFor(p.deploy, pl, pr, ev) {
				s.direct[pr] = true
			}
		}
		for u := range ev.UsersByPlatform[pl] {
			s.users[u] = true
		}
		s.prefixes[ev.Prefix] = true
	}
	for pr := range ev.Providers {
		p.all.providers[pr] = true
		if isDirectFor(p.deploy, -1, pr, ev) {
			p.all.direct[pr] = true
		}
	}
	for u := range ev.Users {
		p.all.users[u] = true
	}
	p.all.prefixes[ev.Prefix] = true
}

// Merge unions o into p.
func (p *Table3Partial) Merge(o *Table3Partial) {
	for pl, s := range o.per {
		if p.per[pl] == nil {
			p.per[pl] = newVisibilitySets()
		}
		p.per[pl].merge(s)
	}
	p.all.merge(o.all)
}

// Finalize computes the table, including the cross-platform uniqueness
// columns, from the merged sets.
func (p *Table3Partial) Finalize() []Table3Row {
	platforms := collector.Platforms()
	uniqueProviders := func(self collector.Platform) int {
		n := 0
		for k := range p.per[self].providers {
			only := true
			for _, q := range platforms {
				if q != self && p.per[q].providers[k] {
					only = false
					break
				}
			}
			if only {
				n++
			}
		}
		return n
	}
	uniqueUsers := func(self collector.Platform) int {
		n := 0
		for k := range p.per[self].users {
			only := true
			for _, q := range platforms {
				if q != self && p.per[q].users[k] {
					only = false
					break
				}
			}
			if only {
				n++
			}
		}
		return n
	}
	uniquePrefixes := func(self collector.Platform) int {
		n := 0
		for k := range p.per[self].prefixes {
			only := true
			for _, q := range platforms {
				if q != self && p.per[q].prefixes[k] {
					only = false
					break
				}
			}
			if only {
				n++
			}
		}
		return n
	}

	var out []Table3Row
	for _, pl := range platforms {
		s := p.per[pl]
		row := Table3Row{
			Source:          pl.String(),
			Providers:       len(s.providers),
			UniqueProviders: uniqueProviders(pl),
			Users:           len(s.users),
			UniqueUsers:     uniqueUsers(pl),
			Prefixes:        len(s.prefixes),
			UniquePrefixes:  uniquePrefixes(pl),
		}
		if len(s.providers) > 0 {
			row.DirectFeedFrac = float64(len(s.direct)) / float64(len(s.providers))
		}
		out = append(out, row)
	}
	allRow := Table3Row{
		Source:    "ALL",
		Providers: len(p.all.providers),
		Users:     len(p.all.users),
		Prefixes:  len(p.all.prefixes),
	}
	if len(p.all.providers) > 0 {
		allRow.DirectFeedFrac = float64(len(p.all.direct)) / float64(len(p.all.providers))
	}
	out = append(out, allRow)
	return out
}

// Table4Partial is the mergeable state behind Table 4 (visibility by
// provider network type).
type Table4Partial struct {
	topo   *topology.Topology
	deploy *collector.Deployment
	per    map[topology.Kind]*visibilitySets
}

// NewTable4Partial returns an empty partial.
func NewTable4Partial(topo *topology.Topology, deploy *collector.Deployment) *Table4Partial {
	return &Table4Partial{topo: topo, deploy: deploy, per: map[topology.Kind]*visibilitySets{}}
}

func (p *Table4Partial) get(k topology.Kind) *visibilitySets {
	if p.per[k] == nil {
		p.per[k] = newVisibilitySets()
	}
	return p.per[k]
}

// Observe credits ev's providers to their network-type rows.
func (p *Table4Partial) Observe(ev *core.Event) {
	for pr := range ev.Providers {
		k := topology.KindIXP
		if pr.Kind == core.ProviderAS {
			k = topology.KindUnknown
			if as := p.topo.AS(pr.ASN); as != nil {
				k = as.Kind()
			}
		}
		s := p.get(k)
		s.providers[pr] = true
		if isDirectFor(p.deploy, -1, pr, ev) {
			s.direct[pr] = true
		}
		// Users are credited to the provider they were inferred with,
		// not to every provider of the event.
		for u := range ev.ProviderUsers[pr] {
			s.users[u] = true
		}
		s.prefixes[ev.Prefix] = true
	}
}

// Merge unions o into p.
func (p *Table4Partial) Merge(o *Table4Partial) {
	for k, s := range o.per {
		p.get(k).merge(s)
	}
}

// Finalize computes the table from the merged sets.
func (p *Table4Partial) Finalize() []Table4Row {
	var out []Table4Row
	for _, k := range topology.Kinds() {
		s := p.per[k]
		if s == nil {
			out = append(out, Table4Row{Type: k})
			continue
		}
		row := Table4Row{
			Type:      k,
			Providers: len(s.providers),
			Users:     len(s.users),
			Prefixes:  len(s.prefixes),
		}
		if len(s.providers) > 0 {
			row.DirectFeedFrac = float64(len(s.direct)) / float64(len(s.providers))
		}
		out = append(out, row)
	}
	return out
}
