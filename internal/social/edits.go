package social

import (
	"iter"
	"maps"

	"locec/internal/graph"
)

// This file is the dataset's copy-on-write edit delta. A mutation epoch
// used to clone all three per-edge maps (E entries each) to change one
// key; now the epoch's dataset shares its parent's maps and carries a
// small map of per-key edits that shadows them. An epoch therefore copies
// only the delta, and once the delta has grown past √E entries it is
// folded into fresh maps — one E-sized clone amortised over ~√E epochs.
//
// Nothing is ever written in place: a published dataset's maps and delta
// are frozen, so a checkpointer can encode an old snapshot while later
// epochs run.

// edit is the state of one edge key as the epochs since the last fold left
// it; it replaces whatever the three base maps say about the key.
type edit struct {
	deleted  bool
	revealed bool
	label    Label
	inter    []float64 // nil: no interaction row
}

// foldDue is the fold rule: the delta is folded once its square exceeds the
// edge count, i.e. after ~√E edited keys. Cloning the delta costs O(edits)
// per epoch and a fold O(E) once per √E epochs, so both stay O(√E) per
// epoch amortised.
func foldDue(edits, edges int) bool { return edits*edits > edges }

// Editor builds the successor of a dataset: it starts from a private clone
// of the parent's delta, takes one epoch's edits, and Commit freezes the
// result. The parent is never touched.
type Editor struct {
	d *Dataset
}

// Edit starts the successor of d.
func (d *Dataset) Edit() *Editor {
	nd := *d
	nd.edits = maps.Clone(d.edits)
	if nd.edits == nil {
		nd.edits = map[uint64]edit{}
	}
	return &Editor{d: &nd}
}

// Set records edge key k with the given label, revealed flag and
// interaction row (nil or empty for a pair that never interacted; the row
// is retained, not copied), replacing whatever the key held.
func (e *Editor) Set(k uint64, l Label, revealed bool, inter []float64) {
	if len(inter) == 0 {
		inter = nil
	}
	e.d.edits[k] = edit{label: l, revealed: revealed, inter: inter}
}

// Relabel rewrites key k's label and revealed flag, keeping its
// interaction row.
func (e *Editor) Relabel(k uint64, l Label, revealed bool) {
	inter, _ := e.d.InteractionRow(k)
	e.Set(k, l, revealed, inter)
}

// Delete drops key k from all three views.
func (e *Editor) Delete(k uint64) {
	e.d.edits[k] = edit{deleted: true}
}

// Commit freezes the edited dataset over graph g (the parent's graph with
// the epoch's topology changes applied) and returns it; the Editor must
// not be used afterwards. When the delta has outgrown the fold rule it is
// folded into fresh maps first, which is reported as folded.
func (e *Editor) Commit(g *graph.Graph) (ds *Dataset, folded bool) {
	d := e.d
	e.d = nil
	d.G = g
	if foldDue(len(d.edits), g.NumEdges()) {
		d.fold()
		return d, true
	}
	return d, false
}

// fold rebuilds the three maps with the delta applied and drops the delta.
// Only Commit calls it, on a dataset nobody else can see yet.
func (d *Dataset) fold() {
	inter, labels, revealed := maps.Clone(d.Interactions), maps.Clone(d.TrueLabels), maps.Clone(d.Revealed)
	if inter == nil {
		inter = map[uint64][]float64{}
	}
	if labels == nil {
		labels = map[uint64]Label{}
	}
	if revealed == nil {
		revealed = map[uint64]bool{}
	}
	for k, e := range d.edits {
		delete(inter, k)
		delete(labels, k)
		delete(revealed, k)
		if e.deleted {
			continue
		}
		labels[k] = e.label
		if e.revealed {
			revealed[k] = true
		}
		if e.inter != nil {
			inter[k] = e.inter
		}
	}
	d.Interactions, d.TrueLabels, d.Revealed, d.edits = inter, labels, revealed, nil
}

// NumEdits returns the number of edge keys the dataset's delta shadows (0
// on a generated, loaded or just-folded dataset).
func (d *Dataset) NumEdits() int { return len(d.edits) }

// SetRevealed reveals or hides the label of edge key k in place — the
// hold-out step evaluation harnesses run on a dataset they own, before it
// is handed to a learner or shared. It must not be called on a dataset
// other goroutines can read.
func (d *Dataset) SetRevealed(k uint64, on bool) {
	if d.edits == nil {
		if d.Revealed == nil {
			d.Revealed = map[uint64]bool{}
		}
		if on {
			d.Revealed[k] = true
		} else {
			delete(d.Revealed, k)
		}
		return
	}
	// An epoch's dataset shares its base maps with its parent; the delta
	// is its own, so the change goes there.
	l, ok := d.LookupTrueLabel(k)
	if !ok {
		return // not an edge: nothing to reveal or hide
	}
	inter, _ := d.InteractionRow(k)
	d.edits[k] = edit{label: l, revealed: on, inter: inter}
}

// AllTrueLabels iterates every labelled edge key with its ground-truth
// label, in no particular order.
func (d *Dataset) AllTrueLabels() iter.Seq2[uint64, Label] {
	return func(yield func(uint64, Label) bool) {
		for k, l := range d.TrueLabels {
			if _, shadowed := d.edits[k]; !shadowed && !yield(k, l) {
				return
			}
		}
		for k, e := range d.edits {
			if !e.deleted && !yield(k, e.label) {
				return
			}
		}
	}
}

// AllInteractions iterates every edge key that has an interaction row,
// with the row (read-only), in no particular order.
func (d *Dataset) AllInteractions() iter.Seq2[uint64, []float64] {
	return func(yield func(uint64, []float64) bool) {
		for k, c := range d.Interactions {
			if _, shadowed := d.edits[k]; !shadowed && !yield(k, c) {
				return
			}
		}
		for k, e := range d.edits {
			if e.inter != nil && !yield(k, e.inter) {
				return
			}
		}
	}
}

// AllRevealed iterates the edge keys whose label is revealed, in no
// particular order.
func (d *Dataset) AllRevealed() iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		for k, on := range d.Revealed {
			if _, shadowed := d.edits[k]; on && !shadowed && !yield(k) {
				return
			}
		}
		for k, e := range d.edits {
			if e.revealed && !yield(k) {
				return
			}
		}
	}
}
