package prefixtrie

import (
	"iter"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// randPrefix draws a random IPv4 or IPv6 prefix. Small address pools
// force heavy overlap, exercising splits, covering chains and shared
// subtrees.
func randPrefix(rng *rand.Rand) netip.Prefix {
	if rng.Intn(2) == 0 {
		var b [4]byte
		b[0] = byte(10 + rng.Intn(3))
		b[1] = byte(rng.Intn(4))
		b[2] = byte(rng.Intn(8))
		b[3] = byte(rng.Intn(256))
		bits := rng.Intn(33)
		return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
	}
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	b[2] = byte(rng.Intn(2))
	b[3] = byte(rng.Intn(4))
	b[7] = byte(rng.Intn(8))
	b[15] = byte(rng.Intn(256))
	bits := rng.Intn(129)
	return netip.PrefixFrom(netip.AddrFrom16(b), bits).Masked()
}

// naive is the O(n) reference the trie must agree with.
type naive struct {
	ords map[netip.Prefix][]int32
}

func (n *naive) insert(p netip.Prefix, ord int32) {
	n.ords[p] = append(n.ords[p], ord)
}

func (n *naive) exact(q netip.Prefix) []int32 { return n.ords[q] }

func (n *naive) covering(q netip.Prefix) map[netip.Prefix][]int32 {
	out := map[netip.Prefix][]int32{}
	for p, o := range n.ords {
		if p.Addr().Is4() == q.Addr().Is4() && p.Bits() <= q.Bits() && p.Contains(q.Addr()) {
			out[p] = o
		}
	}
	return out
}

func (n *naive) covered(q netip.Prefix) map[netip.Prefix][]int32 {
	out := map[netip.Prefix][]int32{}
	for p, o := range n.ords {
		if p.Addr().Is4() == q.Addr().Is4() && p.Bits() >= q.Bits() && q.Contains(p.Addr()) {
			out[p] = o
		}
	}
	return out
}

func (n *naive) lpm(q netip.Prefix) (netip.Prefix, bool) {
	best, ok := netip.Prefix{}, false
	for p := range n.covering(q) {
		if !ok || p.Bits() > best.Bits() {
			best, ok = p, true
		}
	}
	return best, ok
}

func asMap(seq iter.Seq2[netip.Prefix, []int32]) map[netip.Prefix][]int32 {
	out := map[netip.Prefix][]int32{}
	for p, ords := range seq {
		out[p] = ords
	}
	return out
}

// match is one yielded (prefix, postings) pair, in yield order.
type match struct {
	Prefix netip.Prefix
	Ords   []int32
}

func collect(seq iter.Seq2[netip.Prefix, []int32]) []match {
	var out []match
	for p, ords := range seq {
		out = append(out, match{p, ords})
	}
	return out
}

func sameOrds(a, b []int32) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

func samePostings(t *testing.T, what string, q netip.Prefix, got, want map[netip.Prefix][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s(%s): got %d prefixes, want %d\ngot:  %v\nwant: %v", what, q, len(got), len(want), got, want)
	}
	for p, w := range want {
		g, ok := got[p]
		if !ok || !sameOrds(g, w) {
			t.Fatalf("%s(%s): prefix %s: got %v want %v", what, q, p, g, w)
		}
	}
}

// TestTriePropertyAgainstNaiveScan is the satellite property test:
// random IPv4/IPv6 prefix sets, with LPM / covering / covered answers
// checked against a naive O(n) scan.
func TestTriePropertyAgainstNaiveScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trie{}
		ref := &naive{ords: map[netip.Prefix][]int32{}}
		n := 200 + rng.Intn(400)
		for i := 0; i < n; i++ {
			p := randPrefix(rng)
			tr.Insert(p, int32(i))
			ref.insert(p, int32(i))
		}
		if tr.Len() != len(ref.ords) {
			t.Fatalf("seed %d: trie.Len=%d, naive has %d distinct prefixes", seed, tr.Len(), len(ref.ords))
		}

		// Queries: stored prefixes, their parents, and fresh randoms.
		var queries []netip.Prefix
		for p := range ref.ords {
			queries = append(queries, p)
			if p.Bits() > 0 {
				queries = append(queries, netip.PrefixFrom(p.Addr(), p.Bits()-1).Masked())
			}
		}
		for i := 0; i < 200; i++ {
			queries = append(queries, randPrefix(rng))
		}

		for _, q := range queries {
			if got, want := tr.Exact(q), ref.exact(q); !sameOrds(got, want) {
				t.Fatalf("seed %d: Exact(%s): got %v want %v", seed, q, got, want)
			}
			samePostings(t, "Covering", q, asMap(tr.Covering(q)), ref.covering(q))
			samePostings(t, "Covered", q, asMap(tr.Covered(q)), ref.covered(q))

			gotP, _, gotOK := tr.LPM(q)
			wantP, wantOK := ref.lpm(q)
			if gotOK != wantOK || (gotOK && gotP != wantP) {
				t.Fatalf("seed %d: LPM(%s): got %v,%v want %v,%v", seed, q, gotP, gotOK, wantP, wantOK)
			}
		}
	}
}

// TestTrieCoveringIsOrdered pins the shortest-first contract Covering
// documents (LPM depends on it).
func TestTrieCoveringIsOrdered(t *testing.T) {
	tr := &Trie{}
	for i, s := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.128/25"} {
		tr.Insert(netip.MustParsePrefix(s), int32(i))
	}
	cov := collect(tr.Covering(netip.MustParsePrefix("10.1.2.129/32")))
	for i := 1; i < len(cov); i++ {
		if cov[i-1].Prefix.Bits() >= cov[i].Prefix.Bits() {
			t.Fatalf("Covering not shortest-first: %v", cov)
		}
	}
	if len(cov) != 4 {
		t.Fatalf("want full chain of 4, got %v", cov)
	}
	if p, ords, ok := tr.LPM(netip.MustParsePrefix("10.1.2.129/32")); !ok || p.String() != "10.1.2.128/25" || !slices.Equal(ords, []int32{3}) {
		t.Fatalf("LPM: got %v %v %v", p, ords, ok)
	}
}

// TestTrieIteratorsStopEarly breaks out of both walks after the first
// match: an iterator that kept calling yield would panic the range loop.
func TestTrieIteratorsStopEarly(t *testing.T) {
	tr := &Trie{}
	for i, s := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.2.0.0/16"} {
		tr.Insert(netip.MustParsePrefix(s), int32(i))
	}
	for name, seq := range map[string]iter.Seq2[netip.Prefix, []int32]{
		"Covering": tr.Covering(netip.MustParsePrefix("10.1.2.0/24")),
		"Covered":  tr.Covered(netip.MustParsePrefix("10.0.0.0/8")),
	} {
		n := 0
		for range seq {
			n++
			break
		}
		if n != 1 {
			t.Fatalf("%s: visited %d before break, want 1", name, n)
		}
	}
}

// TestTrieInvalidPrefixIgnored pins that a zero prefix is never stored
// and never matches.
func TestTrieInvalidPrefixIgnored(t *testing.T) {
	tr := &Trie{}
	tr.Insert(netip.Prefix{}, 1)
	tr.Insert(netip.MustParsePrefix("::/0"), 2)
	if tr.Len() != 1 || tr.Exact(netip.Prefix{}) != nil {
		t.Fatalf("Len=%d Exact(zero)=%v, want 1 and nil", tr.Len(), tr.Exact(netip.Prefix{}))
	}
	if _, _, ok := tr.LPM(netip.Prefix{}); ok {
		t.Fatal("LPM(zero) matched")
	}
	if got := collect(tr.Covered(netip.Prefix{})); len(got) != 0 {
		t.Fatalf("Covered(zero) = %v", got)
	}
}

// TestTrieLPMDoesNotAllocate pins the point-query walk as allocation
// free, for hits and misses in both families.
func TestTrieLPMDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := &Trie{}
	for i := 0; i < 500; i++ {
		tr.Insert(randPrefix(rng), int32(i))
	}
	queries := make([]netip.Prefix, 64)
	for i := range queries {
		queries[i] = randPrefix(rng)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		tr.LPM(queries[i%len(queries)])
		i++
	}); n != 0 {
		t.Fatalf("LPM allocates %.1f times per call", n)
	}
}
