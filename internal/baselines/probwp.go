package baselines

import (
	"sort"

	"locec/internal/graph"
	"locec/internal/minhash"
	"locec/internal/social"
)

// ProbWP is the label-propagation baseline of Aggarwal et al. (ICDE 2016)
// as configured in the paper: structural similarity estimated with 20
// min-hash functions; an unlabeled edge ⟨u,v⟩ takes the dominant label of
// labeled edges running between the top-k nodes most similar to u and the
// top-k most similar to v.
//
// Candidate nodes are restricted to the two-hop neighborhood of each
// endpoint: nodes sharing no neighbors have Jaccard similarity 0, so the
// restriction is exact for any k smaller than the two-hop ball and keeps
// the per-edge cost independent of graph size.
type ProbWP struct {
	// Hashes is the min-hash signature length (paper: 20).
	Hashes int
	// TopK is the size of the similar-node sets S_u and S_v (default 10).
	TopK int
	// Seed drives the hash family.
	Seed int64

	sigs *minhash.Signatures
	// labeled adjacency: labeledNbrs[u] lists (neighbor, label) for
	// revealed edges incident to u.
	labeledNbrs [][]labeledEdge
}

type labeledEdge struct {
	v     graph.NodeID
	label social.Label
}

// Name implements EdgeClassifier.
func (p *ProbWP) Name() string { return "ProbWP" }

// Fit implements EdgeClassifier.
func (p *ProbWP) Fit(ds *social.Dataset) error {
	if p.Hashes <= 0 {
		p.Hashes = minhash.DefaultHashes
	}
	if p.TopK <= 0 {
		p.TopK = 10
	}
	p.sigs = minhash.New(ds.G, p.Hashes, p.Seed)
	n := ds.G.NumNodes()
	p.labeledNbrs = make([][]labeledEdge, n)
	for _, k := range ds.LabeledEdges() {
		e := graph.EdgeFromKey(k)
		l := ds.TrueLabel(k)
		p.labeledNbrs[e.U] = append(p.labeledNbrs[e.U], labeledEdge{e.V, l})
		p.labeledNbrs[e.V] = append(p.labeledNbrs[e.V], labeledEdge{e.U, l})
	}
	return nil
}

// topSimilar returns the top-k nodes of the two-hop ball around u ranked by
// min-hash similarity (u itself included — its own labeled edges are the
// strongest evidence).
func (p *ProbWP) topSimilar(ds *social.Dataset, u graph.NodeID) []graph.NodeID {
	type scored struct {
		v   graph.NodeID
		sim float64
	}
	seen := map[graph.NodeID]bool{u: true}
	cands := []graph.NodeID{u}
	for _, v := range ds.G.Neighbors(u) {
		if !seen[v] {
			seen[v] = true
			cands = append(cands, v)
		}
		for _, w := range ds.G.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				cands = append(cands, w)
			}
		}
	}
	scoredCands := make([]scored, 0, len(cands))
	for _, v := range cands {
		sim := 1.0
		if v != u {
			sim = p.sigs.Similarity(u, v)
		}
		if sim > 0 {
			scoredCands = append(scoredCands, scored{v, sim})
		}
	}
	sort.Slice(scoredCands, func(i, j int) bool {
		if scoredCands[i].sim != scoredCands[j].sim {
			return scoredCands[i].sim > scoredCands[j].sim
		}
		return scoredCands[i].v < scoredCands[j].v
	})
	k := p.TopK
	if k > len(scoredCands) {
		k = len(scoredCands)
	}
	out := make([]graph.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = scoredCands[i].v
	}
	return out
}

// PredictEdges implements EdgeClassifier.
func (p *ProbWP) PredictEdges(ds *social.Dataset, keys []uint64) []social.Label {
	out := make([]social.Label, len(keys))
	for i, k := range keys {
		e := graph.EdgeFromKey(k)
		su := p.topSimilar(ds, e.U)
		sv := p.topSimilar(ds, e.V)
		svSet := make(map[graph.NodeID]bool, len(sv))
		for _, v := range sv {
			svSet[v] = true
		}
		var votes [social.NumLabels]float64
		for _, a := range su {
			for _, le := range p.labeledNbrs[a] {
				if svSet[le.v] {
					votes[le.label]++
				}
			}
		}
		best, bestV := social.Unlabeled, 0.0
		for c := 0; c < social.NumLabels; c++ {
			if votes[c] > bestV {
				bestV = votes[c]
				best = social.Label(c)
			}
		}
		out[i] = best // Unlabeled when no labeled edge joins S_u and S_v
	}
	return out
}
