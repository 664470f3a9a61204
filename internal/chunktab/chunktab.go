// Package chunktab is a persistent sorted table of uint64 keys, laid out
// in two levels: chunks of at most 2×Keys entries, and leaves of at most
// 2×Keys chunks. A table is generic over its chunk payload, a run of
// entries held inline or behind a pointer, and knows of a chunk only its
// first key; its owner says, through a Merger, how one chunk takes its
// dirty keys. A table is never written after it is built. Spliced derives
// a successor that copies the top level and rebuilds only the chunks its
// dirty keys change and the leaves holding them; every other leaf and
// chunk is shared with the source, so readers of the old table are never
// disturbed.
package chunktab

import (
	"iter"
	"math/bits"
)

// Keys is the number of entries a chunk is cut at, and the number of
// chunks a leaf is cut at (see pieces). It sets what a splice copies: the
// top level, 32 B per leaf; each leaf holding a changed chunk, 16 B per
// chunk behind a pointer or 32 B per chunk held inline; and every changed
// chunk.
const Keys = 64

// pieces is how many even parts a rebuilt run of m entries is cut into:
// none when it is empty, m/Keys past 2×Keys, else one. Chunks (entries)
// and leaves (chunks) follow the same rule.
func pieces(m int) int {
	if m > 2*Keys {
		return m / Keys
	}
	return min(m, 1)
}

// Table is a sorted run of uint64 keys cut into chunks of payload C, in
// ascending key order. A key is found by two branch-free searches, over
// the leaves and inside one leaf, and its owner's search inside the chunk.
// The zero Table is empty.
type Table[C any] struct {
	leaves []leaf[C]
	n      int
}

// leaf is one run of the chunk table; head is its first chunk's.
type leaf[C any] struct {
	head   uint64
	chunks []chunk[C]
}

// chunk is one run of entries; head is its first key.
type chunk[C any] struct {
	head uint64
	run  C
}

// Len returns the number of keys in t.
func (t Table[C]) Len() int { return t.n }

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
func (t Table[C]) locate(key uint64) (li, ci int) {
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

// Chunk returns the chunk that holds key or would; ok=false when t is
// empty.
func (t Table[C]) Chunk(key uint64) (c C, ok bool) {
	if t.n == 0 {
		return c, false
	}
	li, ci := t.locate(key)
	return t.leaves[li].chunks[ci].run, true
}

// Chunks iterates t's chunks in ascending key order.
func (t Table[C]) Chunks() iter.Seq[C] {
	return func(yield func(C) bool) {
		for _, lf := range t.leaves {
			for _, c := range lf.chunks {
				if !yield(c.run) {
					return
				}
			}
		}
	}
}

// Merger is how a table's owner lands one splice's dirty keys in a chunk:
// drop holds the keys one chunk loses, puts [lo, hi) the ones it gains or
// replaces, whose values the owner keeps. Its rebuilt chunks are cut from
// one slab the owner keeps too. The fields are funcs, not an interface's
// methods, so an owner's closures stay on its stack and a splice that
// changes nothing allocates nothing.
type Merger[C any] struct {
	// Key returns put i's key.
	Key func(i int) uint64
	// Check returns how many entries c holds, and whether landing drop and
	// puts [lo, hi) in it leaves it as it is.
	Check func(c C, drop []uint64, lo, hi int) (n int, same bool)
	// Reserve readies the slab for the given number of entries, cut into
	// at most the given number of chunks.
	Reserve func(entries, chunks int)
	// Merge appends c with drop removed and puts [lo, hi) landed to the
	// slab, and returns how many entries it appended. On an empty table it
	// is called once, with the zero C.
	Merge func(c C, drop []uint64, lo, hi int) int
	// Cut returns slab entries [lo, hi) as one chunk, and its first key.
	Cut func(lo, hi int) (C, uint64)
}

// Wrap returns a table of n entries cut into chunks of Keys, each made by
// cut from entries [lo, hi) of its owner's run, which is not copied.
func Wrap[C any](n int, cut func(lo, hi int) (C, uint64)) Table[C] {
	chunks := make([]chunk[C], 0, (n+Keys-1)/Keys)
	for lo := 0; lo < n; lo += Keys {
		run, head := cut(lo, min(lo+Keys, n))
		chunks = append(chunks, chunk[C]{head, run})
	}
	return Table[C]{leaves: cutLeaves(make([]leaf[C], 0, pieces(len(chunks))), chunks), n: n}
}

// cutChunks appends slab entries [at, at+m) cut into pieces(m) chunks.
func cutChunks[C any](dst []chunk[C], at, m int, cut func(lo, hi int) (C, uint64)) []chunk[C] {
	k := pieces(m)
	for p := range k {
		run, head := cut(at+p*m/k, at+(p+1)*m/k)
		dst = append(dst, chunk[C]{head, run})
	}
	return dst
}

// cutLeaves appends the chunk table chunks cut into pieces(len(chunks))
// leaves, each a capped view of chunks.
func cutLeaves[C any](dst []leaf[C], chunks []chunk[C]) []leaf[C] {
	m := len(chunks)
	k := pieces(m)
	for p := range k {
		lo, hi := p*m/k, (p+1)*m/k
		dst = append(dst, leaf[C]{chunks[lo].head, chunks[lo:hi:hi]})
	}
	return dst
}

// group returns the leaf and chunk that the next dirty key, drop[d] or put
// f, lands in, and where the dirty keys landing there end in drop and in
// the puts: at the next chunk's head.
func (t Table[C]) group(drop []uint64, d, f, puts int, key func(int) uint64) (li, ci, dEnd, fEnd int) {
	if d == len(drop) || (f < puts && key(f) < drop[d]) {
		li, ci = t.locate(key(f))
	} else {
		li, ci = t.locate(drop[d])
	}
	var next []chunk[C] // the chunks above ci: the rest of its leaf's, else the next leaf's
	if lf := t.leaves[li]; ci+1 < len(lf.chunks) {
		next = lf.chunks[ci+1:]
	} else if li+1 < len(t.leaves) {
		next = t.leaves[li+1].chunks
	}
	if len(next) == 0 {
		return li, ci, len(drop), puts
	}
	// A scan, not a search: a chunk's dirty keys are few, and over a whole
	// splice the scans cost one step per dirty key and chunk.
	for dEnd = d; dEnd < len(drop) && drop[dEnd] < next[0].head; dEnd++ {
	}
	for fEnd = f; fEnd < puts && key(fEnd) < next[0].head; fEnd++ {
	}
	return li, ci, dEnd, fEnd
}

// Spliced returns t with the keys of drop removed and m's puts landed, and
// whether that changed t; drop and the puts must each be ascending with no
// key twice, and absent drops are ignored. It copies the top level and
// rebuilds only the chunks m reports changed and the leaves holding them,
// into m's slab, one slab of chunks and one top level; every other leaf
// and chunk is shared with t. A rebuilt chunk or leaf that empties is
// dropped, one past 2×Keys split by pieces. A splice that changes no chunk
// returns t. Neither t nor the dirty keys are written.
func (t Table[C]) Spliced(drop []uint64, puts int, m Merger[C]) (Table[C], bool) {
	if t.n == 0 {
		if puts == 0 {
			return t, false
		}
		var zero C
		m.Reserve(puts, pieces(puts))
		n := m.Merge(zero, nil, 0, puts)
		chunks := cutChunks(make([]chunk[C], 0, pieces(n)), 0, n, m.Cut)
		return Table[C]{leaves: cutLeaves(make([]leaf[C], 0, pieces(len(chunks))), chunks), n: n}, true
	}
	// The slabs hold every changed chunk's entries plus its puts, and the
	// chunk tables of the leaves holding them. A run of m entries or
	// chunks becomes at most max(1, m/Keys) pieces, so no slab outgrows
	// (and moves under) the views cut from it.
	size, groups, slots, last := 0, 0, 0, -1
	for d, f := 0, 0; d < len(drop) || f < puts; {
		li, ci, dEnd, fEnd := t.group(drop, d, f, puts, m.Key)
		if n, same := m.Check(t.leaves[li].chunks[ci].run, drop[d:dEnd], f, fEnd); !same {
			size, groups = size+n+fEnd-f, groups+1
			if li != last {
				slots, last = slots+len(t.leaves[li].chunks), li
			}
		}
		d, f = dEnd, fEnd
	}
	if groups == 0 {
		return t, false
	}
	m.Reserve(size, groups+size/Keys)
	chunks := make([]chunk[C], 0, slots+size/Keys)
	out := Table[C]{leaves: make([]leaf[C], 0, len(t.leaves)+cap(chunks)/Keys), n: t.n}
	// cur is the leaf being rebuilt, from chunks[lo] on; next is its first
	// chunk not yet carried over, done the first leaf of t not yet handled;
	// at is where the slab's next merged run starts.
	cur, lo, next, done, at := -1, 0, 0, 0, 0
	finish := func(upto int) {
		if cur >= 0 {
			chunks = append(chunks, t.leaves[cur].chunks[next:]...)
			out.leaves = cutLeaves(out.leaves, chunks[lo:])
		}
		out.leaves = append(out.leaves, t.leaves[done:upto]...)
	}
	for d, f := 0, 0; d < len(drop) || f < puts; {
		li, ci, dEnd, fEnd := t.group(drop, d, f, puts, m.Key)
		run := t.leaves[li].chunks[ci].run
		n, same := m.Check(run, drop[d:dEnd], f, fEnd)
		if same {
			d, f = dEnd, fEnd
			continue
		}
		if li != cur {
			finish(li)
			cur, lo, next, done = li, len(chunks), 0, li+1
		}
		chunks = append(chunks, t.leaves[li].chunks[next:ci]...)
		merged := m.Merge(run, drop[d:dEnd], f, fEnd)
		out.n += merged - n
		chunks = cutChunks(chunks, at, merged, m.Cut)
		next, d, f, at = ci+1, dEnd, fEnd, at+merged
	}
	finish(len(t.leaves))
	return out, true
}

// Entry is one key of a Rows table and its value.
type Entry[V any] struct {
	Key uint64
	Val V
}

// Rows maps uint64 keys to values of type V, each chunk holding its
// entries inline. The zero Rows is empty.
type Rows[V any] struct{ t Table[[]Entry[V]] }

// Len returns the number of keys in r.
func (r Rows[V]) Len() int { return r.t.n }

// Get returns key's value and whether r holds it.
func (r Rows[V]) Get(key uint64) (v V, ok bool) {
	es, ok := r.t.Chunk(key)
	if !ok {
		return v, false
	}
	i := 0
	for n := len(es); n > 1; n -= n >> 1 {
		i = step(i, n>>1, es[i+n>>1].Key, key)
	}
	if es[i].Key != key {
		return v, false
	}
	return es[i].Val, true
}

// All iterates r's keys and values in ascending key order.
func (r Rows[V]) All() iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		for es := range r.t.Chunks() {
			for _, e := range es {
				if !yield(e.Key, e.Val) {
					return
				}
			}
		}
	}
}

// Spliced returns r with fresh's entries in it, each replacing the entry
// of its key if r holds one; fresh must be ascending with no key twice.
// Neither r nor fresh is written.
func (r Rows[V]) Spliced(fresh []Entry[V]) Rows[V] {
	var slab []Entry[V]
	t, _ := r.t.Spliced(nil, len(fresh), Merger[[]Entry[V]]{
		Key:     func(i int) uint64 { return fresh[i].Key },
		Check:   func(es []Entry[V], _ []uint64, _, _ int) (int, bool) { return len(es), false },
		Reserve: func(entries, _ int) { slab = make([]Entry[V], 0, entries) },
		Merge: func(es []Entry[V], _ []uint64, lo, hi int) int {
			at := len(slab)
			slab = merge(slab, es, fresh[lo:hi])
			return len(slab) - at
		},
		Cut: func(lo, hi int) ([]Entry[V], uint64) { return slab[lo:hi:hi], slab[lo].Key },
	})
	return Rows[V]{t}
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
