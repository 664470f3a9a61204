// Package chunktab is a persistent sorted table from uint64 keys to
// values, laid out in two levels: chunks of at most 2×Keys entries, and
// leaves of at most 2×Keys chunks. A table is never written after it is
// built. Spliced derives a successor that copies the top level and
// rebuilds only the chunks its entries land in and the leaves holding
// them; every other leaf and chunk is shared with the source, so readers
// of the old table are never disturbed.
package chunktab

import (
	"iter"
	"math/bits"
	"slices"
	"sort"
)

// Keys is the number of entries a chunk is cut at, and the number of
// chunks a leaf is cut at (see Pieces). It sets what a splice copies: the
// top level, 32 B per leaf; each leaf holding a changed chunk, 32 B per
// chunk; and every changed chunk.
const Keys = 64

// Pieces is how many even parts a rebuilt run of m entries is cut into:
// none when it is empty, m/Keys past 2×Keys, else one. Chunks (entries)
// and leaves (chunks) follow the same rule.
func Pieces(m int) int {
	if m > 2*Keys {
		return m / Keys
	}
	return min(m, 1)
}

// Entry is one key of a table and its value.
type Entry[V any] struct {
	Key uint64
	Val V
}

// Table maps uint64 keys to values of type V, in ascending key order. A
// lookup is three binary searches: over the leaves, inside one leaf,
// inside one chunk. The zero Table is empty.
type Table[V any] struct {
	leaves []leaf[V]
	n      int
}

// leaf is one run of the chunk table; head is its first chunk's.
type leaf[V any] struct {
	head   uint64
	chunks []chunk[V]
}

// chunk is one run of entries; head is its first key.
type chunk[V any] struct {
	head    uint64
	entries []Entry[V]
}

// Len returns the number of keys in t.
func (t Table[V]) Len() int { return t.n }

// step is one step of a floor search: i + half when head, the head half
// past i, is at or below key, else i. It is arithmetic, not a branch: on
// random keys a branch per step mispredicts half the time, and the misses
// cost more than a map probe.
func step(i, half int, head, key uint64) int {
	_, below := bits.Sub64(key, head, 0) // 1 when key < head
	return i + int(1-below)*half
}

// locate returns the leaf, and the chunk inside it, that hold key or would
// (the first ones when key is below every head).
func (t Table[V]) locate(key uint64) (li, ci int) {
	ls := t.leaves
	for n := len(ls); n > 1; n -= n >> 1 {
		li = step(li, n>>1, ls[li+n>>1].head, key)
	}
	cs := ls[li].chunks
	for n := len(cs); n > 1; n -= n >> 1 {
		ci = step(ci, n>>1, cs[ci+n>>1].head, key)
	}
	return li, ci
}

// Get returns key's value and whether t holds it.
func (t Table[V]) Get(key uint64) (v V, ok bool) {
	if t.n == 0 {
		return v, false
	}
	li, ci := t.locate(key)
	es, i := t.leaves[li].chunks[ci].entries, 0
	for n := len(es); n > 1; n -= n >> 1 {
		i = step(i, n>>1, es[i+n>>1].Key, key)
	}
	if es[i].Key != key {
		return v, false
	}
	return es[i].Val, true
}

// All iterates t's keys and values in ascending key order.
func (t Table[V]) All() iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		for _, lf := range t.leaves {
			for _, c := range lf.chunks {
				for _, e := range c.entries {
					if !yield(e.Key, e.Val) {
						return
					}
				}
			}
		}
	}
}

// cutChunks appends run cut into Pieces(len(run)) chunks, each a capped
// view of run.
func cutChunks[V any](dst []chunk[V], run []Entry[V]) []chunk[V] {
	m := len(run)
	k := Pieces(m)
	for p := range k {
		lo, hi := p*m/k, (p+1)*m/k
		dst = append(dst, chunk[V]{run[lo].Key, run[lo:hi:hi]})
	}
	return dst
}

// cutLeaves appends the chunk table chunks cut into Pieces(len(chunks))
// leaves, each a capped view of chunks.
func cutLeaves[V any](dst []leaf[V], chunks []chunk[V]) []leaf[V] {
	m := len(chunks)
	k := Pieces(m)
	for p := range k {
		lo, hi := p*m/k, (p+1)*m/k
		dst = append(dst, leaf[V]{chunks[lo].head, chunks[lo:hi:hi]})
	}
	return dst
}

// merge appends old with fresh's entries inserted, fresh replacing old on
// a key collision (both ascending).
func merge[V any](dst, old, fresh []Entry[V]) []Entry[V] {
	for len(old) > 0 && len(fresh) > 0 {
		switch o, f := old[0].Key, fresh[0].Key; {
		case o < f:
			dst, old = append(dst, old[0]), old[1:]
		case o == f:
			dst, old, fresh = append(dst, fresh[0]), old[1:], fresh[1:]
		default:
			dst, fresh = append(dst, fresh[0]), fresh[1:]
		}
	}
	return append(append(dst, old...), fresh...)
}

// group returns the leaf and chunk that fresh[f] lands in, and where the
// run of fresh keys landing there ends: at the next chunk's head.
func (t Table[V]) group(fresh []Entry[V], f int) (li, ci, end int) {
	li, ci = t.locate(fresh[f].Key)
	var next []chunk[V] // the chunks above ci: the rest of its leaf's, else the next leaf's
	if lf := t.leaves[li]; ci+1 < len(lf.chunks) {
		next = lf.chunks[ci+1:]
	} else if li+1 < len(t.leaves) {
		next = t.leaves[li+1].chunks
	}
	if len(next) == 0 {
		return li, ci, len(fresh)
	}
	rest := fresh[f:]
	return li, ci, f + sort.Search(len(rest), func(i int) bool { return rest[i].Key >= next[0].head })
}

// Spliced returns t with fresh's entries in it, each replacing the entry
// of its key if t holds one; fresh must be in ascending key order with no
// key twice. It copies the top level and rebuilds only the chunks fresh
// lands in and the leaves holding them, into one slab of entries, one of
// chunks and one top level; every other leaf and chunk is shared with t.
// A rebuilt chunk or leaf past 2×Keys splits by Pieces. Neither t nor
// fresh is written.
func (t Table[V]) Spliced(fresh []Entry[V]) Table[V] {
	if len(fresh) == 0 {
		return t
	}
	if t.n == 0 {
		chunks := cutChunks(make([]chunk[V], 0, Pieces(len(fresh))), slices.Clone(fresh))
		return Table[V]{leaves: cutLeaves(make([]leaf[V], 0, Pieces(len(chunks))), chunks), n: len(fresh)}
	}
	// The slabs hold every rebuilt chunk's entries and the chunk tables of
	// the leaves holding them. A run of m entries or chunks becomes at
	// most max(1, m/Keys) pieces, so neither slab outgrows (and moves
	// under) the views cut from it.
	size, slots, last := 0, 0, -1
	for f := 0; f < len(fresh); {
		li, ci, end := t.group(fresh, f)
		size += len(t.leaves[li].chunks[ci].entries) + end - f
		if li != last {
			slots, last = slots+len(t.leaves[li].chunks), li
		}
		f = end
	}
	ents := make([]Entry[V], 0, size)
	chunks := make([]chunk[V], 0, slots+size/Keys)
	out := Table[V]{leaves: make([]leaf[V], 0, len(t.leaves)+cap(chunks)/Keys), n: t.n}
	// cur is the leaf being rebuilt, from chunks[lo] on; next is its first
	// chunk not yet carried over, done the first leaf of t not yet handled.
	cur, lo, next, done := -1, 0, 0, 0
	finish := func(upto int) {
		if cur >= 0 {
			chunks = append(chunks, t.leaves[cur].chunks[next:]...)
			out.leaves = cutLeaves(out.leaves, chunks[lo:])
		}
		out.leaves = append(out.leaves, t.leaves[done:upto]...)
	}
	for f := 0; f < len(fresh); {
		li, ci, end := t.group(fresh, f)
		if li != cur {
			finish(li)
			cur, lo, next, done = li, len(chunks), 0, li+1
		}
		lf := t.leaves[li]
		chunks = append(chunks, lf.chunks[next:ci]...)
		at := len(ents)
		ents = merge(ents, lf.chunks[ci].entries, fresh[f:end])
		out.n += len(ents) - at - len(lf.chunks[ci].entries)
		chunks = cutChunks(chunks, ents[at:len(ents):len(ents)])
		next, f = ci+1, end
	}
	finish(len(t.leaves))
	return out
}
