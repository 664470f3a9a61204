package core

import (
	"fmt"
	"slices"
	"time"

	"locec/internal/graph"
	"locec/internal/social"
)

// This file is the incremental update engine: apply a batch of graph
// mutations to an already-classified dataset and recompute only the dirty
// neighborhood, against the frozen (already-trained) models. The paper's
// locality property makes this sound: an edge's prediction depends only on
// its two endpoints' ego networks, and an ego network depends only on the
// adjacency among that node's friends. A mutated edge {u,v} therefore
// invalidates exactly the egos of u, v and their common neighbors
// (graph.Overlay.DirtyNodes), the local communities inside those egos, and
// the edges incident to a dirty node — everything else is carried over
// untouched.
//
// ApplyMutations is copy-on-write end to end: the input dataset and result
// are never modified, so a serving layer can keep answering reads from the
// old snapshot while the new one is being computed, then publish the
// returned pair atomically.

// MutationKind discriminates the operations a mutation batch can carry.
type MutationKind uint8

const (
	// MutAdd inserts a new friendship edge (with its ground-truth label
	// and optional interaction counts).
	MutAdd MutationKind = iota
	// MutRemove deletes an existing friendship edge along with its label,
	// revealed flag and interaction counts.
	MutRemove
	// MutRelabel rewrites an existing edge's ground-truth label and
	// revealed flag without touching the topology.
	MutRelabel
)

// String implements fmt.Stringer.
func (k MutationKind) String() string {
	switch k {
	case MutAdd:
		return "add"
	case MutRemove:
		return "remove"
	case MutRelabel:
		return "relabel"
	default:
		return fmt.Sprintf("MutationKind(%d)", uint8(k))
	}
}

// Mutation is one graph change. Batches of mutations are applied in order
// as a single epoch; later mutations see the effects of earlier ones.
type Mutation struct {
	Kind MutationKind
	U, V graph.NodeID
	// Label is the edge's ground-truth label for MutAdd and MutRelabel
	// (must satisfy social.Label.ValidGroundTruth; ignored for MutRemove).
	Label social.Label
	// Revealed marks the label as visible to learners (the survey set).
	Revealed bool
	// Interactions optionally carries the |I|-dimension interaction
	// counts of an added edge (length social.NumInteractionDims, or empty
	// for a pair that never interacted). Ignored for other kinds.
	Interactions []float64
}

// ApplyStats reports how much work one mutation epoch actually did — the
// observability numbers the serving layer republishes in /v1/stats.
type ApplyStats struct {
	// Mutations is the number of operations in the applied batch.
	Mutations int
	// AddedEdges / RemovedEdges count the batch's net topology delta.
	AddedEdges, RemovedEdges int
	// DirtyNodes is the size of the invalidated ego-network set.
	DirtyNodes int
	// DirtyCommunities counts the re-classified local communities.
	DirtyCommunities int
	// DirtyEdges counts the re-predicted edges.
	DirtyEdges int
	// SeededEgos is never written; benchmark/ reads it until the [benchmark] PR of ROADMAP 1(a) lets it go.
	SeededEgos int
	// DatasetEdits is the size of the new dataset's edit delta: the edge
	// keys changed since the per-edge maps were last rebuilt (0 right
	// after a fold).
	DatasetEdits int
	// Folded reports that this epoch rebuilt the per-edge maps from the
	// delta — the one epoch in ~√E that pays an E-sized copy, so an
	// outlier Duration can be attributed.
	Folded bool
	// Duration is the apply wall-clock time.
	Duration time.Duration
}

// CheckInteractions validates the interaction row of an added edge: empty,
// or social.NumInteractionDims counts that pass social.CheckValues, the rule
// social.Dataset.Validate applies to a whole dataset. A NaN, infinite or
// negative count would be re-read as a feature by every later epoch of the
// edge's egos, so it is refused at the door.
func CheckInteractions(row []float64) error {
	if len(row) == 0 {
		return nil
	}
	if len(row) != int(social.NumInteractionDims) {
		return fmt.Errorf("%d interaction dims, want %d", len(row), social.NumInteractionDims)
	}
	return social.CheckValues(row, "interaction dim", true)
}

// ApplyMutations applies one mutation batch to a classified dataset and
// returns a new dataset, a new result and the work statistics, leaving
// both inputs untouched. Models are frozen: dirty communities are
// re-classified by res.Classifier as trained, dirty edges re-predicted by
// res.Combiner (or the agreement rule) as trained — no learning step runs.
//
// The pipeline must be the one that produced (or loaded) res, so its
// division config and combiner mode match the frozen models; res must come
// from a finished run (classified egos, predictions present) on a complete
// dataset (features and labels, not an artifact-only topology).
//
// The batch is transactional: any invalid mutation fails the whole apply
// and returns the inputs unchanged.
func (p *Pipeline) ApplyMutations(ds *social.Dataset, res *Result, batch []Mutation) (*social.Dataset, *Result, ApplyStats, error) {
	t0 := time.Now()
	if len(batch) == 0 {
		return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: empty mutation batch")
	}
	n := ds.G.NumNodes()
	switch {
	case len(ds.UserFeatures) != n || !ds.HasGroundTruth():
		return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: dataset lacks raw features or labels (artifact-only snapshot?)")
	case len(res.Egos) != n:
		return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: %d ego results for %d nodes", len(res.Egos), n)
	case res.Classifier == nil:
		return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: result carries no trained classifier")
	case !p.cfg.AgreementRule && res.Combiner == nil:
		return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: result carries no trained combiner")
	}

	// ---- Stage 0: overlay + dataset delta ---------------------------
	// Mutations run sequentially against the overlay and the dataset's
	// copy-on-write edit delta (the three per-edge maps are shared with ds,
	// not cloned); the overlay accumulates the dirty ego set as it goes.
	ov := graph.NewOverlay(ds.G)
	ed := ds.Edit()
	for i, m := range batch {
		k := (graph.Edge{U: m.U, V: m.V}).Key()
		switch m.Kind {
		case MutAdd:
			if !m.Label.ValidGroundTruth() {
				return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: mutation %d: add {%d,%d}: invalid label %d", i, m.U, m.V, m.Label)
			}
			if err := CheckInteractions(m.Interactions); err != nil {
				return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: mutation %d: add {%d,%d}: %w", i, m.U, m.V, err)
			}
			if err := ov.AddEdge(m.U, m.V); err != nil {
				return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: mutation %d: %w", i, err)
			}
			ed.Set(k, m.Label, m.Revealed, slices.Clone(m.Interactions))
		case MutRemove:
			if err := ov.RemoveEdge(m.U, m.V); err != nil {
				return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: mutation %d: %w", i, err)
			}
			ed.Delete(k)
		case MutRelabel:
			if !ov.HasEdge(m.U, m.V) {
				return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: mutation %d: relabel {%d,%d}: edge does not exist", i, m.U, m.V)
			}
			if !m.Label.ValidGroundTruth() {
				return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: mutation %d: relabel {%d,%d}: invalid label %d", i, m.U, m.V, m.Label)
			}
			ed.Relabel(k, m.Label, m.Revealed)
			// A relabel shifts the ground-truth votes inside the two
			// endpoint egos only (votes tally ego→friend edges), so the
			// topology-derived dirty rule does not apply — mark the
			// endpoints directly.
			_ = ov.MarkNodeDirty(m.U) // in range: HasEdge above vouched
			_ = ov.MarkNodeDirty(m.V)
		default:
			return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: mutation %d: unknown kind %d", i, m.Kind)
		}
	}
	added, removed := ov.Mutations()
	dirty := ov.DirtyNodes()
	// Commit folds the delta into fresh maps when it has outgrown √E
	// entries — the one E-sized copy left on this path, paid once per ~√E
	// epochs. UserFeatures stay shared: the node set is fixed.
	newDS, folded := ed.Commit(ov.Compact())

	// ---- Stage I: re-divide the dirty egos --------------------------
	newRes := &Result{
		ClassifierName: res.ClassifierName,
		Classifier:     res.Classifier,
		Combiner:       res.Combiner,
		Times:          res.Times,
		Egos:           slices.Clone(res.Egos),
	}
	p.DivideNodes(newDS, newRes.Egos, dirty)

	// ---- Stage II: re-classify the dirty communities (frozen model) --
	var dirtyComms []*LocalCommunity
	for _, u := range dirty {
		dirtyComms = append(dirtyComms, newRes.Egos[u].Comms...)
	}
	res.Classifier.Classify(newDS, dirtyComms)

	// ---- Stage III: re-predict the dirty edges (frozen combiner) -----
	// An edge's features read only its endpoints' ego results, so the
	// affected set is every surviving edge incident to a dirty node (the
	// batch's added edges are incident to dirty endpoints by construction).
	// The new store is one splice of the old: removed keys dropped, the
	// fresh dirty-edge predictions inserted, only the chunks holding them
	// rebuilt.
	seen := make(map[uint64]struct{}, len(dirty)*8)
	var dirtyEdges []graph.Edge
	for _, u := range dirty {
		for _, v := range newDS.G.Neighbors(u) {
			e := (graph.Edge{U: u, V: v}).Canon()
			if _, dup := seen[e.Key()]; dup {
				continue
			}
			seen[e.Key()] = struct{}{}
			dirtyEdges = append(dirtyEdges, e)
		}
	}
	slices.SortFunc(dirtyEdges, func(a, b graph.Edge) int {
		switch {
		case a.Key() < b.Key():
			return -1
		case a.Key() > b.Key():
			return 1
		default:
			return 0
		}
	})
	fresh, err := p.repredict(newRes, dirtyEdges)
	if err != nil {
		return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: %w", err)
	}
	removedKeys := make([]uint64, len(removed)) // ascending: Mutations sorts by key
	for i, e := range removed {
		removedKeys[i] = e.Key()
	}
	newRes.Edges = res.Edges.spliced(removedKeys, fresh)

	stats := ApplyStats{
		Mutations:        len(batch),
		AddedEdges:       len(added),
		RemovedEdges:     len(removed),
		DirtyNodes:       len(dirty),
		DirtyCommunities: len(dirtyComms),
		DirtyEdges:       len(dirtyEdges),
		DatasetEdits:     newDS.NumEdits(),
		Folded:           folded,
		Duration:         time.Since(t0),
	}
	return newDS, newRes, stats, nil
}

// VerifyIncremental is the incremental engine's equivalence oracle: apply
// batch incrementally AND re-run the full staged pipeline from scratch on
// the mutated dataset with the same frozen models, then compare every
// prediction and probability vector. A nil return means the dirty-set
// propagation recomputed exactly what a full recompute would have; any
// divergence beyond tol is reported with the offending edge.
func VerifyIncremental(p *Pipeline, ds *social.Dataset, res *Result, batch []Mutation, tol float64) error {
	newDS, got, _, err := p.ApplyMutations(ds, res, batch)
	if err != nil {
		return err
	}
	want, err := p.RunFrozen(newDS, res)
	if err != nil {
		return err
	}
	return diffResults(want, got, tol)
}

// diffResults compares two results' predictions and probability vectors.
func diffResults(want, got *Result, tol float64) error {
	if want.Edges.Len() != got.Edges.Len() {
		return fmt.Errorf("core: oracle: %d predictions, want %d", got.Edges.Len(), want.Edges.Len())
	}
	for _, k := range want.Edges.Keys() {
		wl, wp, _ := want.Edges.Lookup(k)
		gl, gp, ok := got.Edges.Lookup(k)
		if !ok {
			return fmt.Errorf("core: oracle: edge %v missing from incremental result", graph.EdgeFromKey(k))
		}
		if gl != wl {
			return fmt.Errorf("core: oracle: edge %v predicted %v incrementally, %v from scratch",
				graph.EdgeFromKey(k), gl, wl)
		}
		if len(gp) != len(wp) {
			return fmt.Errorf("core: oracle: edge %v probability vector misshaped", graph.EdgeFromKey(k))
		}
		for c := range wp {
			d := gp[c] - wp[c]
			if d < 0 {
				d = -d
			}
			if !(d <= tol) { // NaN fails too
				return fmt.Errorf("core: oracle: edge %v class %d prob %g incrementally, %g from scratch (|Δ|=%g > %g)",
					graph.EdgeFromKey(k), c, gp[c], wp[c], d, tol)
			}
		}
	}
	return nil
}
