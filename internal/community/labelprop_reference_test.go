package community

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"locec/internal/graph"
)

// The map-and-sort label propagation that shipped until the dense-counter
// kernel on a Scratch replaced it, with its canonicalize tail, moved here
// verbatim. It is the oracle the tests below pin LabelPropagation against
// (==). Nothing outside tests calls it.

// labelPropagationReference is LabelPropagation as it was before the rewrite.
func labelPropagationReference(g *graph.Graph, maxRounds int, seed int64) *Partition {
	n := g.NumNodes()
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	if maxRounds <= 0 {
		maxRounds = 20
	}
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	counts := make(map[int]int)
	for round := 0; round < maxRounds; round++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		changed := false
		for _, u := range order {
			ns := g.Neighbors(graph.NodeID(u))
			if len(ns) == 0 {
				continue
			}
			for k := range counts {
				delete(counts, k)
			}
			for _, v := range ns {
				counts[labels[v]]++
			}
			bestLabel, bestCount := labels[u], 0
			// Deterministic tie-break: smallest label among the most frequent.
			keys := make([]int, 0, len(counts))
			for k := range counts {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for _, k := range keys {
				if counts[k] > bestCount {
					bestCount = counts[k]
					bestLabel = k
				}
			}
			if bestLabel != labels[u] {
				labels[u] = bestLabel
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return canonicalizeReference(g, labels)
}

// canonicalizeReference renumbers arbitrary labels to dense community
// indices and builds the Partition with modularity.
func canonicalizeReference(g *graph.Graph, labels []int) *Partition {
	remap := make(map[int]int)
	assign := make([]int, len(labels))
	for v, l := range labels {
		idx, ok := remap[l]
		if !ok {
			idx = len(remap)
			remap[l] = idx
		}
		assign[v] = idx
	}
	comms := make([][]graph.NodeID, len(remap))
	for v := range assign {
		c := assign[v]
		comms[c] = append(comms[c], graph.NodeID(v))
	}
	return &Partition{Assign: assign, Comms: comms, Q: Modularity(g, assign)}
}

// TestLabelPropagationMatchesReference: on 2 400 random graphs of 1–60
// nodes with the density swept over [0, 1], random seeds, and round caps 1,
// 20 and the default, the exported wrapper returns the reference's
// Partition (Assign, Comms and Q with ==) and the in-pipeline entry — on
// one scratch shared by every graph, large and small in turn — returns its
// Assign and community count.
func TestLabelPropagationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s Scratch
	for trial := 0; trial < 2400; trial++ {
		n := 1 + rng.Intn(60)
		g := gnp(rng, n, float64(trial%25)/24)
		seed := rng.Int63()
		rounds := []int{1, 20, 0}[trial%3]
		want := labelPropagationReference(g, rounds, seed)
		if err := samePartition(LabelPropagation(g, rounds, seed), want); err != nil {
			t.Fatalf("trial %d (n=%d, m=%d, rounds=%d, seed=%d): %v", trial, n, g.NumEdges(), rounds, seed, err)
		}
		assign, k := s.LabelPropagation(g, rounds, seed)
		if !slices.Equal(assign, want.Assign) || k != len(want.Comms) {
			t.Fatalf("trial %d (n=%d, m=%d, rounds=%d, seed=%d): scratch run gives %d communities %v, want %d %v",
				trial, n, g.NumEdges(), rounds, seed, k, assign, len(want.Comms), want.Assign)
		}
	}
}

// TestLouvainOnSharedScratch: Louvain drawing from a scratch's re-seeded
// generator — one that label propagation and earlier Louvain runs have
// already drawn from — divides as Louvain on a generator of its own does.
func TestLouvainOnSharedScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		g := gnp(rng, 1+rng.Intn(40), rng.Float64())
		seed := rng.Int63()
		s.LabelPropagation(g, 20, seed+1)
		if err := samePartition(s.Louvain(g, seed), Louvain(g, seed)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestLabelPropagationScratchAllocations: on a warm scratch a run allocates
// the assignment it returns and nothing else.
func TestLabelPropagationScratchAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := gnp(rng, 60, 0.2)
	var s Scratch
	s.LabelPropagation(g, 20, 1)
	if a := testing.AllocsPerRun(50, func() { s.LabelPropagation(g, 20, 7) }); a > 1 {
		t.Fatalf("%v allocations per run on a warm scratch, want 1 (the assignment)", a)
	}
}
