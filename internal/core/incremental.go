package core

import (
	"cmp"
	"fmt"
	"math"
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
	// keys changed since the dataset was loaded.
	DatasetEdits int
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
	// Commit splices the epoch's edits into the delta, copying only the
	// chunks they land in. UserFeatures stay shared: the node set is fixed.
	newDS := ed.Commit(ov.Compact())

	// ---- Stages I–III: refresh the dirty egos and their edges -------
	// Every surviving edge incident to a dirty node (added edges are, by
	// construction) is listed once: from its dirty endpoint, or from the
	// smaller one when both are dirty. The new store is one splice of the
	// old, removed keys dropped and only the chunks they touch rebuilt.
	newRes := &Result{
		ClassifierName: res.ClassifierName,
		Classifier:     res.Classifier,
		Combiner:       res.Combiner,
		Division:       res.Division,
		Times:          res.Times,
		Egos:           slices.Clone(res.Egos),
		Edges:          res.Edges,
	}
	var dirtyEdges []graph.Edge
	for _, u := range dirty {
		for _, v := range newDS.G.Neighbors(u) {
			if _, both := slices.BinarySearch(dirty, v); !both || u < v {
				dirtyEdges = append(dirtyEdges, (graph.Edge{U: u, V: v}).Canon())
			}
		}
	}
	slices.SortFunc(dirtyEdges, func(a, b graph.Edge) int { return cmp.Compare(a.Key(), b.Key()) })
	removedKeys := make([]uint64, len(removed)) // ascending: Mutations sorts by key
	for i, e := range removed {
		removedKeys[i] = e.Key()
	}
	dirtyComms, err := p.refresh(newDS, newRes, dirty, dirtyEdges, removedKeys)
	if err != nil {
		return nil, nil, ApplyStats{}, fmt.Errorf("core: apply: %w", err)
	}

	stats := ApplyStats{
		Mutations:        len(batch),
		AddedEdges:       len(added),
		RemovedEdges:     len(removed),
		DirtyNodes:       len(dirty),
		DirtyCommunities: len(dirtyComms),
		DirtyEdges:       len(dirtyEdges),
		DatasetEdits:     newDS.NumEdits(),
		Duration:         time.Since(t0),
	}
	return newDS, newRes, stats, nil
}

// Burst is ApplyBurst's account of one burst of mutation batches.
type Burst struct {
	// Errs[i] is batch i's rejection, nil when it was applied.
	Errs []error
	// Stats[i] is the work of the epoch that applied batch i: the whole
	// burst's when it went as one epoch.
	Stats []ApplyStats
	// Total is the work of every applied batch together.
	Total ApplyStats
	// Applied counts the applied batches.
	Applied int
}

// ApplyBurst applies mutation batches in order: the one rule the live
// applier, boot recovery and offline WAL replay share. The whole burst
// first goes as one epoch; if that is rejected and there are several
// batches, each is applied on the previous one's output and a rejected one
// is skipped, so a poisoned batch cannot sink its neighbours. Both ways
// end in the same state, since an epoch's output depends only on the
// dataset it ends on (VerifyIncremental). It returns the final pair — the
// inputs when nothing applied — and what happened to each batch.
func (p *Pipeline) ApplyBurst(ds *social.Dataset, res *Result, batches [][]Mutation) (*social.Dataset, *Result, Burst) {
	b := Burst{Errs: make([]error, len(batches)), Stats: make([]ApplyStats, len(batches))}
	nds, nres, stats, err := p.ApplyMutations(ds, res, slices.Concat(batches...))
	if err == nil {
		for i := range b.Stats {
			b.Stats[i] = stats
		}
		b.Total, b.Applied = stats, len(batches)
		return nds, nres, b
	}
	if len(batches) == 1 {
		b.Errs[0] = err
		return ds, res, b
	}
	for i, batch := range batches {
		nds, nres, stats, err := p.ApplyMutations(ds, res, batch)
		if err != nil {
			b.Errs[i] = err
			continue
		}
		ds, res = nds, nres
		b.Stats[i] = stats
		b.Applied++
		t := &b.Total
		t.Mutations += stats.Mutations
		t.AddedEdges += stats.AddedEdges
		t.RemovedEdges += stats.RemovedEdges
		t.DirtyNodes += stats.DirtyNodes
		t.DirtyCommunities += stats.DirtyCommunities
		t.DirtyEdges += stats.DirtyEdges
		t.DatasetEdits = stats.DatasetEdits // a size, not a sum: the last batch's
		t.Duration += stats.Duration
	}
	return ds, res, b
}

// VerifyIncremental is the incremental engine's equivalence oracle: apply
// batch incrementally AND re-run the pipeline from scratch on the mutated
// dataset with the same frozen models (RunFrozen), then compare the two
// bit for bit. A nil return means the dirty-set propagation recomputed
// exactly what a full recompute would have.
func VerifyIncremental(p *Pipeline, ds *social.Dataset, res *Result, batch []Mutation) error {
	newDS, got, _, err := p.ApplyMutations(ds, res, batch)
	if err != nil {
		return err
	}
	want, err := p.RunFrozen(newDS, res)
	if err != nil {
		return err
	}
	return diffResults(want, got)
}

// diffResults compares two results bit for bit — every ego's Phase I
// output, its communities' Phase I and II output, every edge's label and
// probabilities — and reports the first divergence; a NaN is one.
func diffResults(want, got *Result) error {
	same := func(a, b []float64) bool {
		return !slices.ContainsFunc(a, math.IsNaN) &&
			slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	if len(got.Egos) != len(want.Egos) {
		return fmt.Errorf("core: oracle: %d ego results, want %d", len(got.Egos), len(want.Egos))
	}
	for u, w := range want.Egos {
		g := got.Egos[u]
		if g.Ego != w.Ego || !slices.Equal(g.Members, w.Members) || !slices.Equal(g.CommIdx, w.CommIdx) ||
			!same(g.Tightness, w.Tightness) || len(g.Comms) != len(w.Comms) {
			return fmt.Errorf("core: oracle: ego %d divided differently incrementally and from scratch", u)
		}
		for i, wc := range w.Comms {
			gc := g.Comms[i]
			if !slices.Equal(gc.Members, wc.Members) || !same(gc.Tightness, wc.Tightness) ||
				!same(gc.Probs, wc.Probs) || gc.TruthVotes != wc.TruthVotes {
				return fmt.Errorf("core: oracle: ego %d community %d differs incrementally and from scratch", u, i)
			}
		}
	}
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
		if !same(gp, wp) {
			return fmt.Errorf("core: oracle: edge %v probabilities %v incrementally, %v from scratch",
				graph.EdgeFromKey(k), gp, wp)
		}
	}
	return nil
}
