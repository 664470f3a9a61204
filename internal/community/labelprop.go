package community

import (
	"math/rand"

	"locec/internal/graph"
)

// Scratch is the reusable working state of the seeded detectors and of
// Clauset growth: one scratch serves any number of runs, one at a time.
// The zero value is ready to use.
type Scratch struct {
	rng *rand.Rand // re-seeded per run by label propagation and Louvain
	// labels, order and remap are indexed by node; counts by label, which
	// is a node ID too. touched lists the labels counts is non-zero at.
	labels, order, remap, counts, touched []int
	clauset                               clausetScratch
}

// seeded returns the scratch's generator in the state
// rand.New(rand.NewSource(seed)) starts in.
func (s *Scratch) seeded(seed int64) *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	return s.rng
}

// LabelPropagation detects communities with the asynchronous label
// propagation algorithm (Raghavan et al. 2007). It is much faster than
// Girvan–Newman and is used in the repository's ablation study comparing
// Phase I detectors; the paper itself uses Girvan–Newman.
//
// The node visit order is shuffled per round with the given seed, and ties
// are broken toward the smallest label, making the run deterministic.
func LabelPropagation(g *graph.Graph, maxRounds int, seed int64) *Partition {
	var s Scratch
	assign, k := s.LabelPropagation(g, maxRounds, seed)
	return newPartition(g, assign, k)
}

// newPartition wraps an assignment over k communities, numbered by their
// smallest node, in its Partition: member lists sorted, modularity on g.
func newPartition(g *graph.Graph, assign []int, k int) *Partition {
	comms := make([][]graph.NodeID, k)
	for v, c := range assign {
		comms[c] = append(comms[c], graph.NodeID(v))
	}
	return &Partition{Assign: assign, Comms: comms, Q: Modularity(g, assign)}
}

// LabelPropagation is the package-level LabelPropagation without the
// Partition around it: the assignment (the caller's to keep, communities
// numbered by their smallest node) and the number of communities, the only
// allocation once the scratch has grown to the graph.
func (s *Scratch) LabelPropagation(g *graph.Graph, maxRounds int, seed int64) (assign []int, communities int) {
	n := g.NumNodes()
	if maxRounds <= 0 {
		maxRounds = 20
	}
	s.labels, s.order, s.remap, s.counts = sized(s.labels, n), sized(s.order, n), sized(s.remap, n), sized(s.counts, n)
	labels, order, remap, counts := s.labels, s.order, s.remap, s.counts
	for i := range labels {
		labels[i], order[i], remap[i], counts[i] = i, i, -1, 0
	}
	touched := s.touched[:0]
	rng := s.seeded(seed)
	for round := 0; round < maxRounds; round++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		changed := false
		for _, u := range order {
			ns := g.Neighbors(graph.NodeID(u))
			if len(ns) == 0 {
				continue
			}
			for _, v := range ns {
				l := labels[v]
				if counts[l] == 0 {
					touched = append(touched, l)
				}
				counts[l]++
			}
			// The most frequent label, the smallest among ties; u has a
			// neighbor, so its own label wins only by being counted.
			best, bestCount := labels[u], 0
			for _, l := range touched {
				if c := counts[l]; c > bestCount || c == bestCount && l < best {
					best, bestCount = l, c
				}
				counts[l] = 0
			}
			touched = touched[:0]
			if best != labels[u] {
				labels[u] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	s.touched = touched
	assign = make([]int, n)
	for v, l := range labels {
		if remap[l] < 0 {
			remap[l] = communities
			communities++
		}
		assign[v] = remap[l]
	}
	return assign, communities
}
