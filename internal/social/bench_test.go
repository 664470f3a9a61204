package social

import (
	"fmt"
	"math/rand"
	"testing"

	"locec/internal/graph"
)

// lookupDataset is a delta-free dataset of 131 072 edges, (u, u+d) for
// u < 16 384 and d = 1…8: every edge labelled, every second with an
// interaction row, every fourth revealed.
func lookupDataset() (*Dataset, []uint64) {
	const nodes, span = 16_384, 8
	b := graph.NewBuilder(nodes + span)
	ds := &Dataset{Interactions: map[uint64][]float64{}, TrueLabels: map[uint64]Label{}, Revealed: map[uint64]bool{}}
	var keys []uint64
	for u := range graph.NodeID(nodes) {
		for d := graph.NodeID(1); d <= span; d++ {
			if err := b.AddEdge(u, u+d); err != nil {
				panic(err)
			}
			k := (graph.Edge{U: u, V: u + d}).Key()
			ds.TrueLabels[k] = Label(len(keys) % 4)
			if len(keys)%2 == 0 {
				ds.Interactions[k] = make([]float64, NumInteractionDims)
			}
			if len(keys)%4 == 0 {
				ds.Revealed[k] = true
			}
			keys = append(keys, k)
		}
	}
	ds.G = b.Build()
	return ds, keys
}

var lookupSink int

// BenchmarkDatasetLookup probes InteractionRow and IsRevealed, at random
// edges, on lookupDataset after one epoch relabelled 0, 320 or 5 000 of
// its edges: what a read pays for the edit delta over the maps' own probe.
// One op is one probe.
func BenchmarkDatasetLookup(b *testing.B) {
	base, keys := lookupDataset()
	rng := rand.New(rand.NewSource(1))
	probes := make([]uint64, 4096)
	for i := range probes {
		probes[i] = keys[rng.Intn(len(keys))]
	}
	for _, edits := range []int{0, 320, 5_000} {
		ds := base
		if edits > 0 {
			ed := base.Edit()
			for _, i := range rng.Perm(len(keys))[:edits] {
				ed.Relabel(keys[i], Family, i%3 == 0)
			}
			ds = ed.d
			ed.Commit(base.G) // freezes ed.d in place
		}
		b.Run(fmt.Sprintf("edits=%d/InteractionRow", edits), func(b *testing.B) {
			for i := range b.N {
				row, _ := ds.InteractionRow(probes[i%len(probes)])
				lookupSink += len(row)
			}
		})
		b.Run(fmt.Sprintf("edits=%d/IsRevealed", edits), func(b *testing.B) {
			for i := range b.N {
				if ds.IsRevealed(probes[i%len(probes)]) {
					lookupSink++
				}
			}
		})
	}
}
