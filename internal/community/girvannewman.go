// Package community implements the community detection algorithms used in
// LoCEC Phase I: the Girvan–Newman divisive algorithm (the paper's choice,
// Section IV-A) driven by Brandes edge betweenness with modularity-based
// best-cut selection, label propagation and Louvain for ablation studies,
// and the seed-grown local detectors (clauset, lshell).
//
// Girvan–Newman recomputes only what a removal changed: betweenness lives
// in an edge-indexed array, is re-derived per connected component and only
// for the components that lost an edge in the previous round, and every
// buffer of a call comes from a pooled scratch (see GirvanNewman). Brandes
// runs on bit rows local to the component it refreshes, so the search and
// the predecessor scan cost a word operation per 64 nodes of a row plus one
// step per shortest-path edge. The component's word count picks one of two
// source loops: a component of at most 64 nodes keeps every row and level
// mask in one word, a larger one runs on W-word rows.
package community

import (
	"math/bits"
	"slices"
	"sync"

	"locec/internal/graph"
)

// Partition assigns every node of a graph to exactly one community.
type Partition struct {
	// Assign maps node ID -> community index in [0, len(Comms)).
	Assign []int
	// Comms lists the members of each community, sorted ascending.
	Comms [][]graph.NodeID
	// Q is the Newman modularity of this partition on the input graph.
	Q float64
}

// NumCommunities returns the number of communities.
func (p *Partition) NumCommunities() int { return len(p.Comms) }

// Options tunes the Girvan–Newman run.
type Options struct {
	// Patience stops the run after this many consecutive rounds without a
	// modularity improvement; 0 means never stop early. Ego networks are
	// small, so the exact run is affordable; large graphs should set this.
	Patience int
}

// GirvanNewman detects communities by repeatedly removing the edge with the
// highest betweenness (Girvan & Newman 2002) and returning the connected-
// component partition with the highest modularity seen during the process.
// Communities are numbered by their smallest node.
//
// The input graph is not modified. Ties in betweenness (within a relative
// 1e-9 of the maximum) are removed together in one round, which both
// accelerates the run and makes it deterministic.
//
// Removing an edge changes shortest paths only inside the component that
// held it, so a round re-explores just the components that lost an edge,
// re-runs Brandes only over those (each restricted to its own nodes) and
// leaves every other component's betweenness as stored. Modularity is
// recomputed only in rounds where a component actually split; a round
// that splits nothing leaves the partition, hence Q, as it was and counts
// as a round without improvement. The result is bit-identical to
// recomputing every edge's betweenness over the whole graph each round:
// an edge's betweenness is a float sum over the sources of its component
// in ascending order and, per source, over nodes in reverse BFS order, a
// node's path count is a float sum over its predecessors in BFS order, and
// all three orders are kept (the tests pin this with == against the
// whole-graph loop kept in girvannewman_reference_test.go).
func GirvanNewman(g *graph.Graph, opt Options) *Partition {
	if g.NumNodes() == 0 {
		return &Partition{Assign: []int{}, Comms: [][]graph.NodeID{}}
	}
	s := gnPool.Get().(*gnScratch)
	s.load(g)
	bestQ := s.modularity()
	copy(s.best, s.comp)
	noImprove := 0
	for len(s.live) > 0 {
		if s.removeMax() {
			if q := s.modularity(); q > bestQ+1e-12 {
				bestQ = q
				copy(s.best, s.comp)
				noImprove = 0
				continue
			}
		}
		noImprove++
		if opt.Patience > 0 && noImprove >= opt.Patience {
			break
		}
	}
	p := s.partition(bestQ)
	gnPool.Put(s)
	return p
}

// EdgeBetweenness computes unweighted shortest-path edge betweenness on an
// immutable graph (Brandes 2001, edge variant). Keys are canonical edge
// keys; values are summed over all source nodes (each unordered pair is
// counted twice, which is irrelevant for ranking). Exposed for tests and
// for callers who want raw centrality scores.
func EdgeBetweenness(g *graph.Graph) map[uint64]float64 {
	out := make(map[uint64]float64, g.NumEdges())
	if g.NumNodes() == 0 {
		return out
	}
	s := gnPool.Get().(*gnScratch)
	s.load(g)
	s.refresh()
	for e, b := range s.bet {
		out[graph.Edge{U: s.eu[e], V: s.ev[e]}.Key()] = b
	}
	gnPool.Put(s)
	return out
}

// Modularity computes Newman modularity Q of the given assignment on g:
// Q = sum_c [ m_c/m - (d_c/2m)^2 ] where m_c is the number of intra-
// community edges and d_c the total degree of community c.
func Modularity(g *graph.Graph, assign []int) float64 {
	m := g.NumEdges()
	if m == 0 {
		return 0
	}
	maxC := -1
	for _, c := range assign {
		if c > maxC {
			maxC = c
		}
	}
	intra := make([]float64, maxC+1)
	deg := make([]float64, maxC+1)
	g.ForEachEdge(func(u, v graph.NodeID) {
		if assign[u] == assign[v] {
			intra[assign[u]]++
		}
	})
	for u := 0; u < g.NumNodes(); u++ {
		deg[assign[u]] += float64(g.Degree(graph.NodeID(u)))
	}
	q := 0.0
	m2 := 2 * float64(m)
	for c := range intra {
		q += intra[c]/float64(m) - (deg[c]/m2)*(deg[c]/m2)
	}
	return q
}

// gnPool recycles gnScratch between calls (and between the Phase I workers
// that call GirvanNewman concurrently), so a call allocates only its result.
var gnPool = sync.Pool{New: func() any { return new(gnScratch) }}

// gnScratch is the whole working state of one Girvan–Newman run. load
// sizes and fills every buffer a run reads, so nothing a previous (possibly
// larger) graph left behind is ever observed.
type gnScratch struct {
	// Mutable CSR copy of the graph: node u's live neighbours are
	// nbr[off[u]:end[u]], ascending, and eid holds the edge id of each
	// entry. Removing an edge compacts both rows in place.
	off, end []int32
	nbr      []graph.NodeID
	eid      []int32

	// Edges have dense ids in (u,v) order, u < v.
	eu, ev []graph.NodeID
	bet    []float64 // betweenness by edge id; current for every live edge outside a dirty component
	live   []int32   // ids of the edges not yet removed, ascending

	// Connected components of the working graph: comp labels every node,
	// and the nodes of label c are perm[segLo[c]:segHi[c]], ascending.
	comp         []int32
	perm         []graph.NodeID
	segLo, segHi []int32
	labels       int32
	dirty        []int32 // components (of two or more nodes) whose betweenness is stale
	touched      []int32 // components that lost an edge this round
	mark         []bool  // by label: already in touched; all false between rounds

	// explore: sub-component index by node, size then write cursor by
	// sub-component, the buffer the segment is regrouped through, and the
	// search stack.
	sub, cnt   []int32
	tmp, queue []graph.NodeID

	// brandes, per component, by local index (position in the component's
	// segment): the node's local index by node, then rows of W =
	// ceil(size/64) words holding each node's live neighbours as bits, and
	// for each row word the index into eid of its first neighbour (when W
	// is 1, each row's 64 edge ids by bit instead).
	loc  []int32
	rows []uint64
	pos  []int32

	// brandes, per source: path counts and dependencies by local index,
	// the BFS order, where each level starts in it, the nodes of each level
	// as a W-word mask, and the union of those masks.
	sigma, delta []float64
	order, start []int32
	levels, seen []uint64

	// The storage load cuts brandes' buffers from.
	ints   []int32
	words  []uint64
	floats []float64

	// Communities numbered by smallest node: idx by label, cidx by node,
	// and Modularity's two per-community sums.
	idx, cidx   []int32
	intra, dsum []float64

	best []int32 // comp at the best modularity seen
}

// sized returns buf with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// load copies g into the scratch, numbers its edges, finds its connected
// components and marks all of them dirty. g must have at least one node.
func (s *gnScratch) load(g *graph.Graph) {
	n, m := g.NumNodes(), g.NumEdges()
	s.off, s.nbr = append(s.off[:0], 0), s.nbr[:0]
	for u := range n {
		s.nbr = append(s.nbr, g.Neighbors(graph.NodeID(u))...)
		s.off = append(s.off, int32(len(s.nbr)))
	}
	s.end = sized(s.end, n)
	s.eid = sized(s.eid, 2*m)
	s.eu, s.ev = sized(s.eu, m), sized(s.ev, m)
	s.bet = sized(s.bet, m)
	s.live = sized(s.live, m)
	s.comp, s.perm = sized(s.comp, n), sized(s.perm, n)
	s.segLo, s.segHi = sized(s.segLo, n), sized(s.segHi, n)
	s.mark = sized(s.mark, n)
	s.sub, s.cnt = sized(s.sub, n), sized(s.cnt, n)
	s.tmp, s.queue = sized(s.tmp, n), sized(s.queue, n)
	// brandes works on rows of at most w words, or on a 64-wide edge-id row
	// per node of a component of at most 64; a search from one end of a
	// path reaches depth n-1 and clears the mask of one level more. Its
	// buffers are cut from one allocation per element type: the pool drops
	// its scratches at a collection and each is rebuilt one buffer at a
	// time, so fewer buffers are fewer objects per run.
	w := (n + 63) >> 6
	s.ints = sized(s.ints, 3*n+max(w*n, min(n, 64)<<6))
	s.loc, s.pos = s.ints[:n], s.ints[3*n:]
	s.order, s.start = s.ints[n:2*n:2*n], s.ints[2*n:3*n:3*n] // appended to
	s.words = sized(s.words, (2*n+2)*w)
	s.rows, s.levels, s.seen = s.words[:n*w], s.words[n*w:(2*n+1)*w], s.words[(2*n+1)*w:]
	s.floats = sized(s.floats, 2*n)
	s.sigma, s.delta = s.floats[:n], s.floats[n:]
	s.idx, s.cidx = sized(s.idx, n), sized(s.cidx, n)
	s.intra, s.dsum = sized(s.intra, n), sized(s.dsum, n)
	s.best = sized(s.best, n)

	// Edge ids in (u,v) order. end[v] serves as a cursor into v's row
	// first: v's smaller neighbours lead its row and arrive in ascending
	// order as the sweep passes them.
	copy(s.end, s.off)
	id := int32(0)
	for u := 0; u < n; u++ {
		for i := s.off[u]; i < s.off[u+1]; i++ {
			v := s.nbr[i]
			if int(v) < u {
				continue
			}
			s.eu[id], s.ev[id] = graph.NodeID(u), v
			s.eid[i] = id
			s.eid[s.end[v]] = id
			s.end[v]++
			s.live[id] = id
			id++
		}
	}
	copy(s.end, s.off[1:])

	// One segment holding every node, then split into the real components.
	for v := range s.perm {
		s.perm[v] = graph.NodeID(v)
		s.comp[v] = 0
	}
	s.segLo[0], s.segHi[0] = 0, int32(n)
	s.labels = 1
	s.dirty = s.dirty[:0]
	s.explore(0)
}

// cut deletes v from u's live row, keeping the row sorted.
func (s *gnScratch) cut(u, v graph.NodeID) {
	lo, hi := s.off[u], s.end[u]
	at := lo + int32(slices.Index(s.nbr[lo:hi], v))
	copy(s.nbr[at:hi-1], s.nbr[at+1:hi])
	copy(s.eid[at:hi-1], s.eid[at+1:hi])
	s.end[u] = hi - 1
}

// removeMax runs one round: it brings betweenness up to date, removes every
// edge within a relative epsilon of the maximum (which handles exact
// symmetric ties deterministically), re-explores the components that lost
// an edge and reports whether any of them split.
func (s *gnScratch) removeMax() bool {
	s.refresh()
	maxB := 0.0
	for _, e := range s.live {
		if b := s.bet[e]; b > maxB {
			maxB = b
		}
	}
	thresh := maxB * (1 - 1e-9)
	keep, touched := s.live[:0], s.touched[:0]
	for _, e := range s.live {
		if s.bet[e] < thresh {
			keep = append(keep, e)
			continue
		}
		u, v := s.eu[e], s.ev[e]
		s.cut(u, v)
		s.cut(v, u)
		if c := s.comp[u]; !s.mark[c] {
			s.mark[c] = true
			touched = append(touched, c)
		}
	}
	s.live, s.touched = keep, touched
	split := false
	for _, c := range touched {
		s.mark[c] = false
		if s.explore(c) {
			split = true
		}
	}
	return split
}

// explore re-derives the connected components inside component c after
// edge removals. The first part found keeps label c, the others get fresh
// labels, c's segment of perm is regrouped so that each part is again a
// contiguous ascending run, and every part that still has an edge is
// queued in dirty. It reports whether c split.
func (s *gnScratch) explore(c int32) bool {
	lo := s.segLo[c]
	seg := s.perm[lo:s.segHi[c]]
	for _, v := range seg {
		s.sub[v] = -1
	}
	k := int32(0)
	for _, root := range seg {
		if s.sub[root] >= 0 {
			continue
		}
		s.sub[root] = k
		s.cnt[k] = 1
		stack := append(s.queue[:0], root)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range s.nbr[s.off[v]:s.end[v]] {
				if s.sub[w] < 0 {
					s.sub[w] = k
					s.cnt[k]++
					stack = append(stack, w)
				}
			}
		}
		k++
	}
	if k == 1 {
		if len(seg) > 1 {
			s.dirty = append(s.dirty, c)
		}
		return false
	}
	// Stable counting sort of the (ascending) segment by part.
	at := lo
	for j := int32(0); j < k; j++ {
		at, s.cnt[j] = at+s.cnt[j], at
	}
	for _, v := range seg {
		j := s.sub[v]
		s.tmp[s.cnt[j]-lo] = v
		s.cnt[j]++
	}
	copy(seg, s.tmp)
	at = lo
	for j := int32(0); j < k; j++ {
		label := c
		if j > 0 {
			label = s.labels
			s.labels++
		}
		s.segLo[label], s.segHi[label] = at, s.cnt[j]
		for _, v := range s.perm[at:s.cnt[j]] {
			s.comp[v] = label
		}
		if s.cnt[j]-at > 1 {
			s.dirty = append(s.dirty, label)
		}
		at = s.cnt[j]
	}
	return true
}

// refresh recomputes the betweenness of every dirty component.
func (s *gnScratch) refresh() {
	for _, c := range s.dirty {
		s.brandes(c)
	}
	s.dirty = s.dirty[:0]
}

// brandes recomputes the betweenness of the edges of connected component c
// with its own nodes as the only sources, ascending (no other source
// reaches them), on bit rows local to the component.
//
// A node's local index is its position in c's segment of perm, so local
// order is global order. Row i has bit j set when local nodes i and j are
// live neighbours, and pos[i*W+k] is the index into eid of the first live
// neighbour of i in word k: bit j of that word sits popcount(lower bits)
// further along, which gives the edge id without an n×n table.
//
// The search runs level by level over the BFS order. A dequeued node's
// unvisited neighbours (row &^ seen) are appended in ascending bit order,
// which is the order a scan of its sorted row discovers them, and its
// neighbours on the next level (row & that level's mask, the new ones
// included) add its path count to theirs, so every sigma sums its
// predecessors in BFS order. Path counts stop being exact integers above
// 2^53; that order is what keeps them equal to a row scan's. Accumulation
// walks the order backwards and reads a node's predecessors off its row
// and the previous level's mask. Their order within one node never reaches
// a sum, since each (predecessor, node) pair adds to a different delta and
// a different edge.
func (s *gnScratch) brandes(c int32) {
	seg := s.perm[s.segLo[c]:s.segHi[c]]
	nc := len(seg)
	W := (nc + 63) >> 6
	rows, pos := s.rows[:nc*W], s.pos[:nc*W]
	sigma, delta := s.sigma[:nc], s.delta[:nc]
	seen := s.seen[:W]
	for i, u := range seg {
		s.loc[u] = int32(i)
	}
	clear(rows)
	for i, u := range seg {
		row := rows[i*W : i*W+W]
		lo, hi := s.off[u], s.end[u]
		for _, w := range s.nbr[lo:hi] {
			j := s.loc[w]
			row[j>>6] |= 1 << (j & 63)
		}
		for _, e := range s.eid[lo:hi] {
			s.bet[e] = 0
		}
	}
	if W == 1 {
		s.brandes1(seg)
		return
	}
	for i, u := range seg {
		at := s.off[u]
		for k, r := range rows[i*W : i*W+W] {
			pos[i*W+k] = at
			at += int32(bits.OnesCount64(r))
		}
	}
	eid, bet, levels := s.eid, s.bet, s.levels
	for src := range seg {
		clear(sigma)
		clear(delta)
		clear(seen)
		clear(levels[:W])
		seen[src>>6] = 1 << (src & 63)
		levels[src>>6] = 1 << (src & 63)
		sigma[src] = 1
		order := append(s.order[:0], int32(src))
		start := s.start[:0]
		// Level d is order[start[d]:start[d+1]] and levels[d*W:(d+1)*W].
		for lo := 0; lo < len(order); {
			start = append(start, int32(lo))
			hi := len(order)
			next := levels[len(start)*W : len(start)*W+W]
			clear(next)
			for _, v := range order[lo:hi] {
				sv := sigma[v]
				for k, r := range rows[int(v)*W : int(v)*W+W] {
					if fresh := r &^ seen[k]; fresh != 0 {
						seen[k] |= fresh
						next[k] |= fresh
						for ; fresh != 0; fresh &= fresh - 1 {
							order = append(order, int32(k<<6+bits.TrailingZeros64(fresh)))
						}
					}
					for on := r & next[k]; on != 0; on &= on - 1 {
						sigma[k<<6+bits.TrailingZeros64(on)] += sv
					}
				}
			}
			lo = hi
		}
		// Dependency accumulation in reverse BFS order.
		hi := len(order)
		for d := len(start) - 1; d > 0; d-- {
			prev := levels[(d-1)*W : d*W]
			lo := int(start[d])
			for i := hi - 1; i >= lo; i-- {
				w := int(order[i])
				at := pos[w*W : w*W+W]
				for k, r := range rows[w*W : w*W+W] {
					for on := r & prev[k]; on != 0; on &= on - 1 {
						// The bits of r below on's lowest count the
						// neighbours that precede this one in its word.
						b := bits.TrailingZeros64(on)
						v := k<<6 + b
						e := eid[at[k]+int32(bits.OnesCount64(r&(1<<b-1)))]
						dep := sigma[v] / sigma[w] * (1 + delta[w])
						delta[v] += dep
						bet[e] += dep
					}
				}
			}
			hi = lo
		}
	}
}

// brandes1 is the source loop of brandes for a component of at most 64
// nodes, whose rows brandes has built. Every row and level mask is one
// word, so the seen set and the level being built stay in locals, a node's
// sigma and 1 + delta are read once, and bit j of row i finds its edge id
// in a 64-wide table, tbl[i<<6|j], in place of pos and a popcount. Every
// float statement is the multi-word loop's, in the same order.
func (s *gnScratch) brandes1(seg []graph.NodeID) {
	nc := len(seg)
	rows := s.rows[:nc]
	sigma, delta := s.sigma[:nc], s.delta[:nc]
	tbl := s.pos[:nc<<6]
	for i, u := range seg {
		for p := s.off[u]; p < s.end[u]; p++ {
			tbl[i<<6|int(s.loc[s.nbr[p]])] = s.eid[p]
		}
	}
	bet, levels := s.bet, s.levels
	for src := range nc {
		clear(sigma)
		clear(delta)
		seen := uint64(1) << src
		levels[0] = seen
		sigma[src] = 1
		order := append(s.order[:0], int32(src))
		start := s.start[:0]
		for lo := 0; lo < len(order); {
			start = append(start, int32(lo))
			hi := len(order)
			next := uint64(0)
			for _, v := range order[lo:hi] {
				sv, r := sigma[v], rows[v]
				fresh := r &^ seen
				seen |= fresh
				next |= fresh
				for ; fresh != 0; fresh &= fresh - 1 {
					order = append(order, int32(bits.TrailingZeros64(fresh)))
				}
				for on := r & next; on != 0; on &= on - 1 {
					sigma[bits.TrailingZeros64(on)] += sv
				}
			}
			levels[len(start)] = next
			lo = hi
		}
		hi := len(order)
		for d := len(start) - 1; d > 0; d-- {
			prev := levels[d-1]
			lo := int(start[d])
			for i := hi - 1; i >= lo; i-- {
				w := order[i]
				sw, dw := sigma[w], 1+delta[w]
				te := tbl[int(w)<<6 : int(w)<<6+64]
				for on := rows[w] & prev; on != 0; on &= on - 1 {
					b := bits.TrailingZeros64(on)
					dep := sigma[b] / sw * dw
					delta[b] += dep
					bet[te[b&63]] += dep
				}
			}
			hi = lo
		}
	}
}

// number writes every node's community index under comp into cidx,
// numbering the components by their smallest node, and returns how many
// there are.
func (s *gnScratch) number(comp []int32) int {
	idx := s.idx[:s.labels]
	for l := range idx {
		idx[l] = -1
	}
	k := int32(0)
	for v, l := range comp {
		if idx[l] < 0 {
			idx[l] = k
			k++
		}
		s.cidx[v] = idx[l]
	}
	return int(k)
}

// modularity is Modularity(g, assign) for the current components, with the
// same community numbering and the same summation order.
func (s *gnScratch) modularity() float64 {
	m := float64(len(s.eu))
	if m == 0 {
		return 0
	}
	k := s.number(s.comp)
	intra, dsum := s.intra[:k], s.dsum[:k]
	clear(intra)
	clear(dsum)
	for e, u := range s.eu {
		if s.comp[u] == s.comp[s.ev[e]] {
			intra[s.cidx[u]]++
		}
	}
	for v, c := range s.cidx {
		dsum[c] += float64(s.off[v+1] - s.off[v])
	}
	q := 0.0
	m2 := 2 * m
	for c := range intra {
		q += intra[c]/m - (dsum[c]/m2)*(dsum[c]/m2)
	}
	return q
}

// partition materialises the best snapshot; the communities share one
// backing array, each capped to its own run.
func (s *gnScratch) partition(q float64) *Partition {
	k := s.number(s.best)
	size := s.cnt[:k]
	clear(size)
	n := len(s.best)
	assign := make([]int, n)
	for v, c := range s.cidx {
		assign[v] = int(c)
		size[c]++
	}
	members := make([]graph.NodeID, n)
	comms := make([][]graph.NodeID, k)
	at := int32(0)
	for c := range comms {
		comms[c] = members[at : at : at+size[c]]
		at += size[c]
	}
	for v, c := range s.cidx {
		comms[c] = append(comms[c], graph.NodeID(v))
	}
	return &Partition{Assign: assign, Comms: comms, Q: q}
}
