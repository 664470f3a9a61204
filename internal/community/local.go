package community

import (
	"slices"

	"locec/internal/graph"
)

// This file is the shared scaffolding of the seed-grown ("local-first")
// detectors: Clauset local modularity, Bagrow–Bollt l-shell spreading and
// the simplified LEMON local spectral method. Unlike the global detectors
// (Girvan–Newman, label propagation, Louvain), these never look at the
// whole graph: each community is grown outward from a seed vertex and the
// growth stops when its boundary stabilizes.
//
// Locality is made auditable: every grow runs through a scanTracker that
// records the set of nodes whose adjacency the growth read. A grow is a
// pure function of the adjacency rows of its scanned nodes, which is the
// contract the incremental engine's seeded re-division relies on — if a
// mutation touches none of a stored grow's scanned nodes, replaying the
// grow on the mutated graph is guaranteed to reproduce it bit-identically
// without running the algorithm again (see LocalDivision.Replay).

// LocalKind selects one of the seed-grown detectors.
type LocalKind int

const (
	// LocalClauset grows by greedy boundary-R expansion (Clauset 2005,
	// "Finding local community structure in networks").
	LocalClauset LocalKind = iota
	// LocalLShell grows shell by shell with an emerging-degree cutoff
	// (Bagrow & Bollt 2005, "A local method for detecting communities").
	LocalLShell
	// LocalLemon grows by short random-walk diffusion, a small Krylov
	// subspace and a min-one-norm style sparse indicator with a
	// conductance sweep (Li et al. 2015, LEMON, simplified to ego scale).
	LocalLemon
)

// String implements fmt.Stringer.
func (k LocalKind) String() string {
	switch k {
	case LocalLShell:
		return "lshell"
	case LocalLemon:
		return "lemon"
	default:
		return "clauset"
	}
}

// LocalOptions selects a seed-grown detector. Growth is unbounded in
// size; each detector's own parameters are constants beside its code.
type LocalOptions struct {
	Kind LocalKind
}

// Grown is one seed-grown community together with its provenance: the raw
// grown member set (before any overlap trimming by LocalDivide) and the
// scanned set — every node whose adjacency the growth read. Members and
// Scanned are sorted ascending; Members always contains Seed.
type Grown struct {
	Seed    graph.NodeID
	Members []graph.NodeID
	Scanned []graph.NodeID
}

// LocalDivision is a full partition produced by iterated seed growth, plus
// the per-community grows that produced it. Grows[i] grew Part.Comms[i]
// (the community may be a trimmed subset of the grow when an earlier
// community already claimed some of its members).
type LocalDivision struct {
	Part  *Partition
	Grows []Grown
}

// scanTracker wraps a graph and records which nodes' adjacency rows a
// growth reads. Growers must read the graph exclusively through it.
type scanTracker struct {
	g       *graph.Graph
	scanned []bool
}

func newScanTracker(g *graph.Graph) *scanTracker {
	return &scanTracker{g: g, scanned: make([]bool, g.NumNodes())}
}

func (t *scanTracker) neighbors(u graph.NodeID) []graph.NodeID {
	t.scanned[u] = true
	return t.g.Neighbors(u)
}

func (t *scanTracker) degree(u graph.NodeID) int {
	t.scanned[u] = true
	return t.g.Degree(u)
}

func (t *scanTracker) list() []graph.NodeID {
	var out []graph.NodeID
	for u, s := range t.scanned {
		if s {
			out = append(out, graph.NodeID(u))
		}
	}
	return out
}

// GrowLocal grows a single community from seed with the selected detector.
// The result is deterministic: same graph, seed and options always produce
// the same community, and its trace depends only on the adjacency rows of
// the returned Scanned set.
func GrowLocal(g *graph.Graph, seed graph.NodeID, opt LocalOptions) Grown {
	t := newScanTracker(g)
	var members []graph.NodeID
	switch opt.Kind {
	case LocalLShell:
		members = growLShell(t, seed)
	case LocalLemon:
		members = growLemon(t, seed)
	default:
		members = growClauset(t, seed)
	}
	slices.Sort(members)
	return Grown{Seed: seed, Members: members, Scanned: t.list()}
}

// LocalDivide partitions the whole graph by iterated seed growth: seeds
// are visited in increasing node-ID order, each unassigned seed grows a
// community on the full graph (context-free — the growth never looks at
// earlier assignments), and the community keeps the grow's still-unassigned
// members. Every node ends up assigned: a node never claimed by an earlier
// grow eventually becomes a seed itself. Community order follows seed
// order, which (because each seed is the smallest unassigned node) matches
// the smallest-member canonical order of the global detectors.
func LocalDivide(g *graph.Graph, opt LocalOptions) *LocalDivision {
	n := g.NumNodes()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	var comms [][]graph.NodeID
	var grows []Grown
	for s := 0; s < n; s++ {
		if assign[s] >= 0 {
			continue
		}
		gr := GrowLocal(g, graph.NodeID(s), opt)
		comm := make([]graph.NodeID, 0, len(gr.Members))
		for _, v := range gr.Members {
			if assign[v] < 0 {
				comm = append(comm, v)
			}
		}
		idx := len(comms)
		for _, v := range comm {
			assign[v] = idx
		}
		comms = append(comms, comm)
		grows = append(grows, gr)
	}
	part := &Partition{Assign: assign, Comms: comms, Q: Modularity(g, assign)}
	return &LocalDivision{Part: part, Grows: grows}
}

// Replay recomputes the division on a mutated graph, reusing stored grows
// where the mutation provably cannot have changed them. touched lists the
// nodes whose adjacency differs between the graph this division was
// computed on and g (for an edge mutation batch: the endpoints of every
// net added or removed edge). The node set must be unchanged.
//
// The result is identical to LocalDivide(g, opt). Seeds are visited in the
// same ID order; for each seed, a stored grow whose Scanned set is
// disjoint from touched would read exactly the same adjacency rows on g as
// it did originally, so its outcome is reused verbatim; any other seed is
// re-grown on g. The second return value counts reused grows.
func (d *LocalDivision) Replay(g *graph.Graph, opt LocalOptions, touched []graph.NodeID) (*LocalDivision, int) {
	n := g.NumNodes()
	if len(d.Part.Assign) != n {
		return LocalDivide(g, opt), 0
	}
	isTouched := make([]bool, n)
	for _, u := range touched {
		if int(u) < n {
			isTouched[u] = true
		}
	}
	bySeed := make(map[graph.NodeID]*Grown, len(d.Grows))
	for i := range d.Grows {
		bySeed[d.Grows[i].Seed] = &d.Grows[i]
	}
	clean := func(gr *Grown) bool {
		for _, u := range gr.Scanned {
			if isTouched[u] {
				return false
			}
		}
		return true
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	var comms [][]graph.NodeID
	var grows []Grown
	reused := 0
	for s := 0; s < n; s++ {
		if assign[s] >= 0 {
			continue
		}
		var gr Grown
		if old, ok := bySeed[graph.NodeID(s)]; ok && clean(old) {
			gr = *old
			reused++
		} else {
			gr = GrowLocal(g, graph.NodeID(s), opt)
		}
		comm := make([]graph.NodeID, 0, len(gr.Members))
		for _, v := range gr.Members {
			if assign[v] < 0 {
				comm = append(comm, v)
			}
		}
		idx := len(comms)
		for _, v := range comm {
			assign[v] = idx
		}
		comms = append(comms, comm)
		grows = append(grows, gr)
	}
	part := &Partition{Assign: assign, Comms: comms, Q: Modularity(g, assign)}
	return &LocalDivision{Part: part, Grows: grows}, reused
}
