// Package core implements the LoCEC engine: the three-phase
// division / aggregation / combination pipeline of the paper (Section IV),
// including ego-network community detection, the Eq. 1–3 feature and
// tightness computations, Algorithm 1 feature-matrix construction, the
// pluggable community classifiers (CommCNN and XGBoost), and the logistic
// regression edge combiner of Eq. 4.
package core

import (
	"fmt"
	"slices"
	"sync"

	"locec/internal/community"
	"locec/internal/graph"
	"locec/internal/parallel"
	"locec/internal/social"
)

// LocalCommunity is one community detected inside an ego network
// (Phase I output). Members are global node IDs.
type LocalCommunity struct {
	// Ego is the ego node whose network contains this community.
	Ego graph.NodeID
	// Members lists the community's nodes (global IDs).
	Members []graph.NodeID
	// Tightness[i] is tightness(Members[i], C) per Eq. 3.
	Tightness []float64
	// Probs is the class probability vector over the NumLabels classes,
	// filled in Phase II (nil until then) by either classifier. It is the
	// community's classification result r_C that Phase III reads (Eq. 4),
	// and what Table V and Fig. 13 score.
	Probs []float64
	// TruthVotes counts revealed ego-edge labels per class; the majority
	// defines the community's ground-truth label where known.
	TruthVotes [social.NumLabels]int
}

// TruthLabel returns the majority revealed label (Section V-C's community
// ground truth), or Unlabeled when no incident ego edge is revealed.
// Ties resolve to the smaller class index for determinism.
func (c *LocalCommunity) TruthLabel() social.Label {
	best, bestV := social.Unlabeled, 0
	for i := 0; i < social.NumLabels; i++ {
		if c.TruthVotes[i] > bestV {
			bestV = c.TruthVotes[i]
			best = social.Label(i)
		}
	}
	return best
}

// EgoResult holds Phase I output for one ego node: its friends, the
// community each friend belongs to, and the friend's tightness there.
type EgoResult struct {
	Ego graph.NodeID
	// Members are the ego's friends (global IDs, sorted).
	Members []graph.NodeID
	// CommIdx[i] is the index into Comms of Members[i]'s community.
	CommIdx []int
	// Tightness[i] is tightness(Members[i], community) per Eq. 3.
	Tightness []float64
	// Comms are the local communities of this ego network.
	Comms []*LocalCommunity
}

// CommunityOf returns the local community containing friend u and u's
// tightness in it, or (nil, 0) if u is not a friend of the ego.
func (r *EgoResult) CommunityOf(u graph.NodeID) (*LocalCommunity, float64) {
	lo, hi := 0, len(r.Members)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.Members[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(r.Members) || r.Members[lo] != u {
		return nil, 0
	}
	return r.Comms[r.CommIdx[lo]], r.Tightness[lo]
}

// DetectorKind selects the Phase I community detector.
type DetectorKind int

const (
	// DetectorGirvanNewman is the paper's choice.
	DetectorGirvanNewman DetectorKind = iota
	// DetectorLabelProp is the fast ablation alternative.
	DetectorLabelProp
	// DetectorLouvain is the greedy-modularity ablation alternative.
	DetectorLouvain
	// DetectorClauset grows communities by greedy local-modularity
	// boundary expansion from a seed (Clauset 2005).
	DetectorClauset
	// DetectorLShell grows communities shell by shell with an
	// emerging-degree cutoff (Bagrow & Bollt 2005).
	DetectorLShell
	// DetectorLemon grows communities by local spectral diffusion
	// (Li et al. 2015, simplified).
	DetectorLemon
)

// detectorNames is the registry: detectorNames[k] names DetectorKind k. CLIs,
// the serving layer and the root package all read this one table.
var detectorNames = [...]string{
	DetectorGirvanNewman: "gn",
	DetectorLabelProp:    "labelprop",
	DetectorLouvain:      "louvain",
	DetectorClauset:      "clauset",
	DetectorLShell:       "lshell",
	DetectorLemon:        "lemon",
}

// String returns the detector's registry name.
func (k DetectorKind) String() string {
	if k < 0 || int(k) >= len(detectorNames) {
		return fmt.Sprintf("DetectorKind(%d)", int(k))
	}
	return detectorNames[k]
}

// MarshalText writes the registry name, which UnmarshalText reads back.
func (k DetectorKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads a registry name, as ParseDetector does.
func (k *DetectorKind) UnmarshalText(b []byte) (err error) {
	*k, err = ParseDetector(string(b))
	return err
}

// Local reports whether the detector is seed-grown.
func (k DetectorKind) Local() bool {
	return k == DetectorClauset || k == DetectorLShell || k == DetectorLemon
}

// localKind maps a local DetectorKind to its community-package selector.
func (k DetectorKind) localKind() community.LocalKind {
	switch k {
	case DetectorLShell:
		return community.LocalLShell
	case DetectorLemon:
		return community.LocalLemon
	default:
		return community.LocalClauset
	}
}

// DetectorNames lists every registry name in declaration order.
func DetectorNames() []string {
	return slices.Clone(detectorNames[:])
}

// ParseDetector resolves a registry name ("" selects the paper's
// Girvan–Newman) to its DetectorKind.
func ParseDetector(name string) (DetectorKind, error) {
	if name == "" {
		return DetectorGirvanNewman, nil
	}
	if k := slices.Index(detectorNames[:], name); k >= 0 {
		return DetectorKind(k), nil
	}
	return 0, fmt.Errorf("core: unknown detector %q (want one of %v)", name, DetectorNames())
}

// DivisionConfig tunes Phase I. Its JSON form is the artifact meta's
// "division" document.
type DivisionConfig struct {
	Detector DetectorKind `json:"detector"`
	// GNPatience is forwarded to community.Options.Patience (0 = exact).
	GNPatience int `json:"gn_patience"`
	// Seed drives the label-propagation and Louvain detectors.
	Seed int64 `json:"seed"`
}

// Divide runs Phase I over every node of the graph: ego-network extraction
// (ego excluded) followed by community detection, tightness computation,
// and ground-truth vote tallying from revealed edge labels.
//
// Nodes are processed independently — the property that lets the deployed
// system stream a billion-node graph across servers (Section V-D). It is
// DivideNodes over every node.
func Divide(ds *social.Dataset, cfg DivisionConfig) []*EgoResult {
	n := ds.G.NumNodes()
	results := make([]*EgoResult, n)
	nodes := make([]graph.NodeID, n)
	for u := range nodes {
		nodes[u] = graph.NodeID(u)
	}
	DivideNodes(ds, results, nodes, cfg)
	return results
}

// DivideNodes recomputes Phase I for just the listed nodes, writing each
// node's fresh *EgoResult into egos[node] and leaving every other entry
// untouched. This is the per-node recompute seam of the staged pipeline:
// the full run passes every node, the incremental engine passes only the
// dirty neighborhood of a mutation batch. Each node's result depends only
// on the dataset and its own ego network (and is seeded per ego), so a
// partial recompute is bit-identical to the same nodes' slice of a full
// Divide.
//
// Listed nodes must be distinct and in range of egos. The loop claims one
// node at a time (grain 1): an ego network's cost varies by orders of
// magnitude — Girvan–Newman on a hub against a leaf — and a fixed partition
// would leave workers idle.
func DivideNodes(ds *social.Dataset, egos []*EgoResult, nodes []graph.NodeID, cfg DivisionConfig) {
	parallel.For(len(nodes), 1, func(i, _ int) {
		egos[nodes[i]] = Divide1(ds, nodes[i], cfg)
	})
}

// Divide1 runs Phase I for a single ego node — the distributed system's
// per-node unit of work. The scalability study uses it to measure raw
// per-node costs.
func Divide1(ds *social.Dataset, ego graph.NodeID, cfg DivisionConfig) *EgoResult {
	s := egoPool.Get().(*egoScratch)
	res := s.divideOne(ds, ego, cfg)
	egoPool.Put(s)
	return res
}

// egoScratch is the working state of one ego's trip through Phase I; an
// EgoResult keeps nothing of it. The ego graph is a view the next
// extraction overwrites — no detector retains it.
type egoScratch struct {
	ego   graph.EgoScratch
	comm  community.Scratch
	size  []int     // members per community
	tight []float64 // Eq. 3 per ego member
}

// egoPool hands a scratch to one ego at a time, whichever worker runs it.
var egoPool = sync.Pool{New: func() any { return new(egoScratch) }}

// divideOne processes a single ego node.
func (s *egoScratch) divideOne(ds *social.Dataset, ego graph.NodeID, cfg DivisionConfig) *EgoResult {
	en := s.ego.Extract(ds.G, ego)
	var part *community.Partition
	switch cfg.Detector {
	case DetectorLabelProp:
		assign, nc := s.comm.LabelPropagation(en.G, 20, cfg.Seed+int64(ego))
		return s.finishEgo(ds, en, assign, nc)
	case DetectorLouvain:
		part = s.comm.Louvain(en.G, cfg.Seed+int64(ego))
	case DetectorClauset, DetectorLShell, DetectorLemon:
		assign, nc := s.comm.LocalDivide(en.G, cfg.Detector.localKind())
		return s.finishEgo(ds, en, assign, nc)
	default:
		part = community.GirvanNewman(en.G, community.Options{Patience: cfg.GNPatience})
	}
	return s.finishEgo(ds, en, part.Assign, len(part.Comms))
}

// finishEgo turns a detector's assignment over nc communities into the
// EgoResult: tightness per Eq. 3 and ground-truth vote tallying — the
// detector-independent tail of divideOne.
func (s *egoScratch) finishEgo(ds *social.Dataset, en graph.EgoNetwork, assign []int, nc int) *EgoResult {
	size := slices.Grow(s.size[:0], nc)[:nc]
	clear(size)
	for _, c := range assign {
		size[c]++
	}
	// Tightness per Eq. 3, using the ego network's internal adjacency.
	tight := s.tight[:0]
	for i, c := range assign {
		t := 1.0 // Eq. 3 special case: a community of one
		if size[c] > 1 {
			inComm := 0
			for _, nb := range en.G.Neighbors(graph.NodeID(i)) {
				if assign[nb] == c {
					inComm++
				}
			}
			fc := float64(inComm)
			t = fc / float64(en.G.Degree(graph.NodeID(i))) * fc / float64(size[c]-1)
		}
		tight = append(tight, t)
	}
	s.size, s.tight = size, tight
	res := NewEgoResult(en.Ego, en.Members, assign, tight, nc)
	// Ground-truth votes from revealed ego->friend edge labels.
	for i, m := range en.Members {
		k := (graph.Edge{U: en.Ego, V: m}).Key()
		if l := ds.RevealedLabel(k); l.Valid() {
			res.Comms[assign[i]].TruthVotes[l]++
		}
	}
	return res
}

// NewEgoResult assembles an EgoResult from its ego-level arrays: members[i]
// sits in community commIdx[i] — in [0, nc), which the caller has checked —
// with tightness[i], and each community lists its members in that order.
// It is EgoSlabs.Cut on slabs sized for this one ego.
func NewEgoResult(ego graph.NodeID, members []graph.NodeID, commIdx []int, tightness []float64, nc int) *EgoResult {
	s := NewEgoSlabs(1, len(members), nc, 0)
	return s.Cut(ego, members, commIdx, tightness, nc)
}

// EgoSlabs is the backing store a run of EgoResults is cut from: one array
// per element type, each view taken off the front of its array and capped
// (s[a:b:b]), so an append to a view copies instead of running into its
// neighbour. NewEgoResult cuts one ego from slabs sized for it; a decoder
// that totals a whole section first sizes them once for every ego, and
// its allocations stop depending on the ego count. The views keep the
// whole slab alive: retained memory is bounded by the slabs' size, however
// many of the egos later epochs replace.
type EgoSlabs struct {
	results []EgoResult
	comms   []LocalCommunity
	ptrs    []*LocalCommunity
	ids     []graph.NodeID
	floats  []float64
}

// NewEgoSlabs sizes slabs for egos results that hold members ego members
// and comms communities in all, plus floats more float64s to cut with
// Floats (the communities' Probs). It returns a value, which a caller
// cutting one ego at a time keeps on its stack.
func NewEgoSlabs(egos, members, comms, floats int) EgoSlabs {
	return EgoSlabs{
		results: make([]EgoResult, egos),
		comms:   make([]LocalCommunity, comms),
		ptrs:    make([]*LocalCommunity, comms),
		ids:     make([]graph.NodeID, 2*members),
		floats:  make([]float64, 2*members+floats),
	}
}

// cutFront takes n elements off the front of *s as a capped view.
func cutFront[T any](s *[]T, n int) []T {
	v := (*s)[:n:n]
	*s = (*s)[n:]
	return v
}

// Floats cuts the next n floats, zeroed, as a capped view.
func (s *EgoSlabs) Floats(n int) []float64 { return cutFront(&s.floats, n) }

// Cut takes the next EgoResult off the slabs, laid out as NewEgoResult
// documents. commIdx is kept; members and tightness are copied (an alias
// of the base graph's adjacency row would keep a compacted-away graph
// reachable) into 2·len(members) IDs and as many floats: ego level first,
// then every community's run.
func (s *EgoSlabs) Cut(ego graph.NodeID, members []graph.NodeID, commIdx []int, tightness []float64, nc int) *EgoResult {
	n := len(members)
	ids, ts := cutFront(&s.ids, 2*n), cutFront(&s.floats, 2*n)
	copy(ids, members)
	copy(ts, tightness)
	comms := cutFront(&s.comms, nc)
	res := &cutFront(&s.results, 1)[0]
	*res = EgoResult{Ego: ego, Members: ids[:n:n], CommIdx: commIdx, Tightness: ts[:n:n], Comms: cutFront(&s.ptrs, nc)}
	// Count each community in the length of its Members header, cut the
	// runs at the running sum, fill by append: each header is its cursor.
	for _, c := range commIdx {
		comms[c].Members = ids[n : n+len(comms[c].Members)+1]
	}
	at := n
	for c := range comms {
		end := at + len(comms[c].Members)
		comms[c] = LocalCommunity{Ego: ego, Members: ids[at:at:end], Tightness: ts[at:at:end]}
		res.Comms[c] = &comms[c]
		at = end
	}
	for i, c := range commIdx {
		comms[c].Members = append(comms[c].Members, members[i])
		comms[c].Tightness = append(comms[c].Tightness, tightness[i])
	}
	return res
}
