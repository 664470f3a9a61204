package community

import "locec/internal/graph"

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

// LocalDivision wraps LocalDivide's partition. Its only non-test reader is
// benchmark/, which reads .Part until the [benchmark] PR of ROADMAP 1(a)
// lets LocalDivide return it bare; Phase I runs (*Scratch).LocalDivide.
type LocalDivision struct {
	Part *Partition
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
	var s Scratch
	assign, k := s.LocalDivide(g, opt.Kind)
	return &LocalDivision{Part: newPartition(g, assign, k)}
}

// LocalDivide is the package-level LocalDivide without the Partition
// around it: the assignment (the caller's to keep) and the number of
// communities. Under clauset the assignment is the only allocation once
// the scratch has grown to the graph.
func (s *Scratch) LocalDivide(g *graph.Graph, kind LocalKind) (assign []int, communities int) {
	assign = make([]int, g.NumNodes())
	for i := range assign {
		assign[i] = -1
	}
	for seed := range assign {
		if assign[seed] >= 0 {
			continue
		}
		for _, v := range s.grow(g, graph.NodeID(seed), kind) {
			if assign[v] < 0 {
				assign[v] = communities
			}
		}
		communities++
	}
	return assign, communities
}

// grow grows a single community from seed with the selected detector and
// returns its members, seed included, in no particular order: clauset's
// list is the scratch's, valid until the next grow. The result is
// deterministic: same graph, seed and kind always produce the same
// community.
func (s *Scratch) grow(g *graph.Graph, seed graph.NodeID, kind LocalKind) []graph.NodeID {
	switch kind {
	case LocalLShell:
		return growLShell(g, seed)
	case LocalLemon:
		return growLemon(g, seed)
	default:
		return s.clauset.grow(g, seed)
	}
}
