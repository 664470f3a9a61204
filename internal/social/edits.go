package social

import (
	"cmp"
	"iter"
	"slices"

	"locec/internal/chunktab"
	"locec/internal/graph"
)

// This file is the dataset's copy-on-write edit delta. A mutation epoch's
// dataset shares its parent's three per-edge maps and carries a
// persistent sorted table of per-key edits that shadows them
// (internal/chunktab). An epoch copies only the chunk of the table each
// edited key lands in, the leaf holding it and the top level; every other
// chunk is shared with the parent.
//
// Nothing is ever written in place: a published dataset's maps and delta
// are frozen, so a checkpointer can encode an old snapshot while later
// epochs run. The delta holds one entry per distinct key edited since the
// dataset was loaded; a load rebuilds the maps and starts it empty.

// edit is the state of one edge key as the epochs since the load left it;
// it replaces whatever the three base maps say about the key.
type edit struct {
	inter    []float64 // nil: no interaction row
	label    Label
	deleted  bool
	revealed bool
}

// Editor builds the successor of a dataset: it buffers one epoch's edits
// in a sorted run, which its reads see first, and Commit splices the run
// into the parent's delta and freezes the result. The parent is never
// touched.
type Editor struct {
	d       *Dataset
	pending []chunktab.Entry[edit] // ascending by key, one entry per key
}

// Edit starts the successor of d.
func (d *Dataset) Edit() *Editor {
	nd := *d
	return &Editor{d: &nd}
}

// find returns where key k's edit is, or would go, in the epoch's run.
func (e *Editor) find(k uint64) (int, bool) {
	return slices.BinarySearchFunc(e.pending, k, func(p chunktab.Entry[edit], k uint64) int { return cmp.Compare(p.Key, k) })
}

// put records x as key k's edit, replacing one buffered earlier this epoch.
func (e *Editor) put(k uint64, x edit) {
	i, found := e.find(k)
	if found {
		e.pending[i].Val = x
		return
	}
	e.pending = slices.Insert(e.pending, i, chunktab.Entry[edit]{Key: k, Val: x})
}

// Set records edge key k with the given label, revealed flag and
// interaction row (nil or empty for a pair that never interacted; the row
// is retained, not copied), replacing whatever the key held.
func (e *Editor) Set(k uint64, l Label, revealed bool, inter []float64) {
	if len(inter) == 0 {
		inter = nil
	}
	e.put(k, edit{label: l, revealed: revealed, inter: inter})
}

// Relabel rewrites key k's label and revealed flag, keeping its
// interaction row as this epoch's earlier edits left it.
func (e *Editor) Relabel(k uint64, l Label, revealed bool) {
	var inter []float64
	if i, found := e.find(k); found {
		inter = e.pending[i].Val.inter
	} else {
		inter, _ = e.d.InteractionRow(k)
	}
	e.Set(k, l, revealed, inter)
}

// Delete drops key k from all three views.
func (e *Editor) Delete(k uint64) {
	e.put(k, edit{deleted: true})
}

// Commit freezes the edited dataset over graph g (the parent's graph with
// the epoch's topology changes applied) and returns it; the Editor must
// not be used afterwards.
func (e *Editor) Commit(g *graph.Graph) *Dataset {
	d := e.d
	d.G, d.edits = g, d.edits.Spliced(e.pending)
	e.d, e.pending = nil, nil
	return d
}

// NumEdits returns the number of edge keys the dataset's delta shadows (0
// on a generated or loaded dataset).
func (d *Dataset) NumEdits() int { return d.edits.Len() }

// SetRevealed reveals or hides the label of edge key k in place — the
// hold-out step evaluation harnesses run on a dataset they own, before it
// is handed to a learner or shared. It must not be called on a dataset
// other goroutines can read.
func (d *Dataset) SetRevealed(k uint64, on bool) {
	if d.edits.Len() == 0 {
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
	// An epoch's dataset shares its base maps with its parent, and the
	// delta's chunks too, so the change is spliced into a delta of its own.
	l, ok := d.LookupTrueLabel(k)
	if !ok {
		return // not an edge: nothing to reveal or hide
	}
	inter, _ := d.InteractionRow(k)
	d.edits = d.edits.Spliced([]chunktab.Entry[edit]{{Key: k, Val: edit{label: l, revealed: on, inter: inter}}})
}

// edited returns key k's edit and whether the delta holds one; an empty
// delta answers without a lookup.
func (d *Dataset) edited(k uint64) (edit, bool) {
	if d.edits.Len() == 0 {
		return edit{}, false
	}
	return d.edits.Get(k)
}

// shadowed reports whether the delta holds key k.
func (d *Dataset) shadowed(k uint64) bool {
	_, ok := d.edited(k)
	return ok
}

// AllTrueLabels iterates every labelled edge key with its ground-truth
// label, in no particular order.
func (d *Dataset) AllTrueLabels() iter.Seq2[uint64, Label] {
	return func(yield func(uint64, Label) bool) {
		for k, l := range d.TrueLabels {
			if !d.shadowed(k) && !yield(k, l) {
				return
			}
		}
		for k, e := range d.edits.All() {
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
			if !d.shadowed(k) && !yield(k, c) {
				return
			}
		}
		for k, e := range d.edits.All() {
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
			if on && !d.shadowed(k) && !yield(k) {
				return
			}
		}
		for k, e := range d.edits.All() {
			if e.revealed && !yield(k) {
				return
			}
		}
	}
}
