// Package prefixtrie is the one prefix index of the system: a binary
// radix (patricia) trie over IP prefixes that answers "which stored
// prefixes contain this one?" and "which lie inside it?". The event
// store, the alert rule index, RPKI origin validation and the
// topology's origin lookup all answer from it.
package prefixtrie

import (
	"encoding/binary"
	"iter"
	"math/bits"
	"net/netip"
	"slices"
)

// Trie is a binary radix (patricia) trie over IP prefixes, keyed by the
// masked address bits and prefix length, with path compression: a node
// exists only where prefixes diverge or terminate. IPv4 and IPv6 live
// in separate subtries, so 192.0.2.0/24 and ::ffff:192.0.2.0/120 never
// alias. Each stored prefix carries a postings list of int32 ordinals,
// kept in ascending order. Invalid (zero) prefixes are never stored:
// Insert drops them and lookups find nothing. The zero value is an
// empty trie.
//
// Lookups answer the query shapes without scanning: Exact (this
// prefix), Covering / LPM (every stored prefix containing a query
// prefix, e.g. "which aggregates blackhole this /32"), and Covered
// (every stored prefix inside a query prefix, e.g. "all blackholed
// more-specifics of this /16"). Postings slices handed out belong to
// the trie: callers must not modify them, and a mutation of the trie
// may invalidate them.
type Trie struct {
	root4, root6 *node
	prefixes     int
}

type node struct {
	// key holds the prefix's address bits, left-aligned (an IPv4
	// address fills the top 32 bits of hi), masked to the prefix length.
	key    key
	prefix netip.Prefix
	// ords is the postings list for the prefix terminating here; nil for
	// pure branch nodes created by a split.
	ords  []int32
	child [2]*node
}

// key is an address as a 128-bit big-endian integer.
type key struct{ hi, lo uint64 }

func keyOf(a netip.Addr) key {
	if a.Is4() {
		b := a.As4()
		return key{hi: uint64(binary.BigEndian.Uint32(b[:])) << 32}
	}
	b := a.As16()
	return key{hi: binary.BigEndian.Uint64(b[:8]), lo: binary.BigEndian.Uint64(b[8:])}
}

// bit returns bit i (0 = most significant) of k.
func (k key) bit(i int) int {
	if i < 64 {
		return int(k.hi >> (63 - i) & 1)
	}
	return int(k.lo >> (127 - i) & 1)
}

// common counts the leading bits k and o share, capped at max.
func (k key) common(o key, max int) int {
	n := bits.LeadingZeros64(k.hi ^ o.hi)
	if n == 64 {
		n += bits.LeadingZeros64(k.lo ^ o.lo)
	}
	return min(n, max)
}

func (t *Trie) rootFor(p netip.Prefix) **node {
	if p.Addr().Is4() {
		return &t.root4
	}
	return &t.root6
}

// Len returns the number of distinct prefixes stored.
func (t *Trie) Len() int { return t.prefixes }

// Insert adds ord to the postings of p (masked).
func (t *Trie) Insert(p netip.Prefix, ord int32) {
	if !p.IsValid() {
		return
	}
	p = p.Masked()
	k, plen := keyOf(p.Addr()), p.Bits()
	np := t.rootFor(p)
	for {
		n := *np
		if n == nil {
			*np = &node{key: k, prefix: p, ords: []int32{ord}}
			t.prefixes++
			return
		}
		nlen := n.prefix.Bits()
		c := k.common(n.key, min(plen, nlen))
		switch {
		case c == nlen && c == plen:
			// Same prefix. Sorted insert: hydrating a cold segment files
			// older ordinals after newer ones are already present, and
			// query results must come out in ordinal (append) order.
			if n.ords == nil {
				t.prefixes++
			}
			n.ords = insertOrd(n.ords, ord)
			return
		case c == nlen:
			// n's prefix contains p: descend.
			np = &n.child[k.bit(nlen)]
		case c == plen:
			// p contains n's prefix: insert p above n.
			nn := &node{key: k, prefix: p, ords: []int32{ord}}
			nn.child[n.key.bit(plen)] = n
			*np = nn
			t.prefixes++
			return
		default:
			// Diverge at bit c: split with a branch node.
			bp := netip.PrefixFrom(p.Addr(), c).Masked()
			branch := &node{key: keyOf(bp.Addr()), prefix: bp}
			branch.child[n.key.bit(c)] = n
			branch.child[k.bit(c)] = &node{key: k, prefix: p, ords: []int32{ord}}
			*np = branch
			t.prefixes++
			return
		}
	}
}

// insertOrd inserts ord into the sorted list l.
func insertOrd(l []int32, ord int32) []int32 {
	if n := len(l); n == 0 || l[n-1] < ord {
		return append(l, ord)
	}
	at, _ := slices.BinarySearch(l, ord)
	return slices.Insert(l, at, ord)
}

// node returns the node where p (masked) terminates, stored or a pure
// branch, or nil.
func (t *Trie) node(p netip.Prefix) *node {
	if n := t.subtree(p); n != nil && n.prefix.Bits() == p.Bits() {
		return n
	}
	return nil
}

// Remove deletes ord from the postings of p. When the last ordinal
// goes, the prefix no longer counts as stored (the node stays behind
// as a pure branch, which lookups already skip).
func (t *Trie) Remove(p netip.Prefix, ord int32) {
	n := t.node(p)
	if n == nil || n.ords == nil {
		return
	}
	if i := slices.Index(n.ords, ord); i >= 0 {
		n.ords = append(n.ords[:i:i], n.ords[i+1:]...)
		if len(n.ords) == 0 {
			n.ords = nil
			t.prefixes--
		}
	}
}

// Replace swaps ordinal from for to in the postings of p, keeping the
// list sorted — compaction uses it to move a duplicate's surviving
// record to the key's first-appearance ordinal.
func (t *Trie) Replace(p netip.Prefix, from, to int32) {
	n := t.node(p)
	if n == nil || n.ords == nil {
		return
	}
	if i := slices.Index(n.ords, from); i >= 0 {
		n.ords = append(n.ords[:i:i], n.ords[i+1:]...)
	}
	n.ords = insertOrd(n.ords, to)
}

// Exact returns the postings list of p, or nil.
func (t *Trie) Exact(p netip.Prefix) []int32 {
	if n := t.node(p); n != nil {
		return n.ords
	}
	return nil
}

// covering calls visit for every stored node whose prefix contains p,
// shortest first, until visit returns false.
func (t *Trie) covering(p netip.Prefix, visit func(*node) bool) {
	if !p.IsValid() {
		return
	}
	k, plen := keyOf(p.Addr()), p.Bits()
	for n := *t.rootFor(p); n != nil; {
		nlen := n.prefix.Bits()
		if nlen > plen || k.common(n.key, nlen) < nlen {
			return
		}
		if n.ords != nil && !visit(n) {
			return
		}
		if nlen == plen {
			return
		}
		n = n.child[k.bit(nlen)]
	}
}

// Covering yields every stored prefix containing p (including p
// itself) with its postings, shortest first — the full chain of
// covering aggregates.
func (t *Trie) Covering(p netip.Prefix) iter.Seq2[netip.Prefix, []int32] {
	return func(yield func(netip.Prefix, []int32) bool) {
		t.covering(p, func(n *node) bool { return yield(n.prefix, n.ords) })
	}
}

// LPM returns the longest stored prefix containing p, with its
// postings; ok is false when no stored prefix covers p. It does not
// allocate.
func (t *Trie) LPM(p netip.Prefix) (match netip.Prefix, ords []int32, ok bool) {
	var best *node
	t.covering(p, func(n *node) bool {
		best = n
		return true
	})
	if best == nil {
		return netip.Prefix{}, nil, false
	}
	return best.prefix, best.ords, true
}

// Covered yields every stored prefix inside p (including p itself)
// with its postings, in trie order (sorted by address bits, shorter
// first on ties).
func (t *Trie) Covered(p netip.Prefix) iter.Seq2[netip.Prefix, []int32] {
	return func(yield func(netip.Prefix, []int32) bool) {
		t.subtree(p).each(yield)
	}
}

// subtree returns the topmost node whose prefix lies inside p, or nil.
func (t *Trie) subtree(p netip.Prefix) *node {
	if !p.IsValid() {
		return nil
	}
	k, plen := keyOf(p.Addr()), p.Bits()
	for n := *t.rootFor(p); n != nil; {
		nlen := n.prefix.Bits()
		c := k.common(n.key, min(plen, nlen))
		if nlen >= plen {
			if c == plen {
				return n
			}
			return nil
		}
		if c < nlen {
			return nil
		}
		n = n.child[k.bit(nlen)]
	}
	return nil
}

// each yields the stored prefixes of n's subtree in trie order,
// reporting false once yield stops the walk.
func (n *node) each(yield func(netip.Prefix, []int32) bool) bool {
	if n == nil {
		return true
	}
	if n.ords != nil && !yield(n.prefix, n.ords) {
		return false
	}
	return n.child[0].each(yield) && n.child[1].each(yield)
}
