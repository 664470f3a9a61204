package core

import (
	"math"
	"testing"

	"locec/internal/graph"
	"locec/internal/social"
)

// fuzzMutation decodes four fuzz bytes into one mutation against the
// current graph: kind, u, v (for remove/relabel an index
// into u's current neighbors, so most of them hit a real edge), and a flags
// byte — label, revealed, "the epoch continues with the next mutation",
// whether an add carries an interaction row, and whether that row is
// hostile (refused at the door).
func fuzzMutation(g *graph.Graph, b [4]byte) (m Mutation, more bool) {
	n := g.NumNodes()
	m.U, m.V = graph.NodeID(int(b[1])%n), graph.NodeID(int(b[2])%n)
	m.Label = social.Label(b[3] % 4)
	m.Revealed = b[3]&4 != 0
	switch m.Kind = MutationKind(b[0] % 3); m.Kind {
	case MutAdd:
		if b[3]&16 != 0 {
			row := make([]float64, social.NumInteractionDims)
			row[int(b[0]/3)%len(row)] = float64(b[2])
			if b[3]&0xe0 == 0xe0 {
				row[0] = math.NaN()
			}
			m.Interactions = row
		}
	default:
		if nb := g.Neighbors(m.U); len(nb) > 0 {
			m.V = nb[int(b[2])%len(nb)]
		}
	}
	return m, b[3]&8 != 0
}

// FuzzApplyMutations turns bytes into a chain of mutation epochs over a
// small trained fixture. After every epoch the accessor view of the
// dataset must equal the plain three-map oracle and Validate must pass;
// a refused epoch must leave its inputs as they were; every 8th applied
// epoch is checked against the frozen from-scratch rerun, bit for bit. The
// chain is long enough for the edit delta to fold (√E ≈ 20 here).
func FuzzApplyMutations(f *testing.F) {
	p, ds0, res0 := incrementalFixture(f, localConfig(DetectorClauset))
	f.Add([]byte{0, 1, 2, 1, 1, 1, 0, 0, 2, 1, 0, 6})                                     // add, remove, relabel: one epoch each
	f.Add([]byte{0, 3, 9, 9, 1, 3, 200, 8, 0, 3, 9, 20, 2, 3, 9, 5})                      // add+remove in one epoch, re-add with a row, relabel it
	f.Add([]byte{0, 5, 6, 0xf4, 1, 5, 0, 0, 0, 7, 7, 0, 2, 200, 1, 7})                    // hostile row, then valid and invalid epochs
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 40, 16, 0, 0, 41, 4, 2, 0, 0}) // strip a node's edges, add some back
	long := make([]byte, 4*64)                                                            // 64 one-mutation epochs: crosses folds
	for i := range long {
		long[i] = byte(i*37 + i/4*11)
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, res := ds0, res0
		oracle := oracleOf(ds)
		applied := 0
		var batch []Mutation
		for len(data) >= 4 && applied < 96 {
			m, more := fuzzMutation(ds.G, [4]byte(data))
			data = data[4:]
			if batch = append(batch, m); more && len(data) >= 4 && len(batch) < 4 {
				continue
			}
			edits := ds.NumEdits()
			nds, nres, stats, err := p.ApplyMutations(ds, res, batch)
			if err != nil {
				if nds != nil || nres != nil || ds.NumEdits() != edits {
					t.Fatalf("refused epoch %v leaked state: %v", batch, err)
				}
				assertViewMatches(t, "after a refused epoch", ds, oracle)
				batch = batch[:0]
				continue
			}
			if applied%8 == 7 {
				if err := VerifyIncremental(p, ds, res, batch); err != nil {
					t.Fatalf("epoch %d %v: %v", applied, batch, err)
				}
			}
			if stats.DatasetEdits != nds.NumEdits() || stats.DatasetEdits*stats.DatasetEdits > nds.G.NumEdges() {
				t.Fatalf("epoch %d: %d edits reported, %d carried, %d edges", applied, stats.DatasetEdits, nds.NumEdits(), nds.G.NumEdges())
			}
			oracle.apply(batch)
			ds, res = nds, nres
			assertViewMatches(t, "after an applied epoch", ds, oracle)
			applied++
			batch = batch[:0]
		}
	})
}
