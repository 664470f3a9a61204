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

// LocalDivision wraps LocalDivide's partition; benchmark/ reads .Part until the [benchmark] PR of ROADMAP 1(a) lets LocalDivide return it bare.
type LocalDivision struct {
	Part *Partition
}

// growLocal grows a single community from seed with the selected detector
// and returns its members sorted ascending (seed included). The result is
// deterministic: same graph, seed and kind always produce the same community.
func growLocal(g *graph.Graph, seed graph.NodeID, kind LocalKind) []graph.NodeID {
	var members []graph.NodeID
	switch kind {
	case LocalLShell:
		members = growLShell(g, seed)
	case LocalLemon:
		members = growLemon(g, seed)
	default:
		members = growClauset(g, seed)
	}
	slices.Sort(members)
	return members
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
	for s := 0; s < n; s++ {
		if assign[s] >= 0 {
			continue
		}
		grown := growLocal(g, graph.NodeID(s), opt.Kind)
		comm := grown[:0]
		for _, v := range grown {
			if assign[v] < 0 {
				comm = append(comm, v)
				assign[v] = len(comms)
			}
		}
		comms = append(comms, comm)
	}
	return &LocalDivision{Part: &Partition{Assign: assign, Comms: comms, Q: Modularity(g, assign)}}
}
