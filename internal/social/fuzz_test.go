package social

import (
	"maps"
	"slices"
	"testing"

	"locec/internal/graph"
)

// fuzzBase is the delta-free dataset FuzzEditDelta edits: every third key
// below 3 000 labelled, every second of those with a row, every fifth
// revealed.
func fuzzBase() (*Dataset, mapOracle) {
	o := mapOracle{map[uint64][]float64{}, map[uint64]Label{}, map[uint64]bool{}}
	for k := uint64(0); k < 3_000; k += 3 {
		var row []float64
		if k%2 == 0 {
			row = make([]float64, NumInteractionDims)
			row[k%8] = float64(k)
		}
		o.set(k, Label(k%4), k%5 == 0, row)
	}
	return o.clone().dataset(graph.NewBuilder(1).Build(), nil), o
}

// applyFuzzOp decodes four fuzz bytes into edits of one epoch, made
// through ed and mirrored in o, and adds every key it edits to touched.
// op%4 picks Set, Relabel, Delete or a bulk Set of 1 + 48·b[3] keys from
// the key on, with stride 1 or 2 (op bit 6); bits 4–5 are the label, bit 2
// the revealed flag, bit 3 "with a row", and bit 7 ends the epoch. The key
// is b[1]·256 + b[2].
func applyFuzzOp(ed *Editor, o mapOracle, touched map[uint64]bool, b [4]byte) (endsEpoch bool) {
	op, k := b[0], uint64(b[1])<<8|uint64(b[2])
	l, revealed := Label(op>>4&3), op&4 != 0
	row := func() []float64 {
		if op&8 == 0 {
			return nil
		}
		r := make([]float64, NumInteractionDims)
		r[b[3]%8] = float64(b[3]) + float64(k)
		return r
	}
	switch op % 4 {
	case 0:
		r := row()
		ed.Set(k, l, revealed, r)
		o.set(k, l, revealed, r)
		touched[k] = true
	case 1:
		ed.Relabel(k, l, revealed)
		o.set(k, l, revealed, o.inter[k])
		touched[k] = true
	case 2:
		ed.Delete(k)
		o.remove(k)
		touched[k] = true
	default:
		stride := uint64(1 + op>>6&1)
		for i := range 1 + 48*uint64(b[3]) {
			key := k + i*stride
			r := row()
			ed.Set(key, l, revealed, r)
			o.set(key, l, revealed, r)
			touched[key] = true
		}
	}
	return op&0x80 != 0
}

// assertSameKeys compares every accessor of got with the oracle on the
// keys in probe, and every iterator with the oracle's maps.
func assertSameKeys(t *testing.T, what string, got *Dataset, want mapOracle, probe []uint64) {
	t.Helper()
	w := want.dataset(got.G, nil)
	for _, k := range probe {
		gl, gok := got.LookupTrueLabel(k)
		wl, wok := w.TrueLabels[k]
		gr, grok := got.InteractionRow(k)
		wr, wrok := w.Interactions[k]
		if gok != wok || gl != wl || got.TrueLabel(k) != wl || got.IsRevealed(k) != w.Revealed[k] ||
			got.RevealedLabel(k) != w.RevealedLabel(k) || grok != wrok || !slices.Equal(gr, wr) {
			t.Fatalf("%s: key %d reads label %v,%v revealed %v row %v,%v; want %v,%v %v %v,%v",
				what, k, gl, gok, got.IsRevealed(k), gr, grok, wl, wok, w.Revealed[k], wr, wrok)
		}
	}
	if !maps.Equal(maps.Collect(got.AllTrueLabels()), w.TrueLabels) {
		t.Fatalf("%s: AllTrueLabels differs from the label map", what)
	}
	if !maps.EqualFunc(maps.Collect(got.AllInteractions()), w.Interactions, slices.Equal[[]float64]) {
		t.Fatalf("%s: AllInteractions differs from the interaction map", what)
	}
	rev := map[uint64]bool{}
	for k := range got.AllRevealed() {
		rev[k] = true
	}
	if !maps.Equal(rev, w.Revealed) {
		t.Fatalf("%s: AllRevealed differs from the revealed map", what)
	}
}

// FuzzEditDelta turns bytes into a chain of Set/Relabel/Delete epochs
// (applyFuzzOp) over a delta-free base. After every epoch every accessor
// and iterator of the new dataset must read as a plain-map oracle, on
// every key the base holds or any epoch edited, and the parent must still
// read as it did before the epoch. The bulk seeds take the delta past
// 2×64×64 keys, where its chunks split and a leaf splits too.
func FuzzEditDelta(f *testing.F) {
	f.Add([]byte{0x0c, 0, 7, 3, 0x81, 0, 7, 0, 0x82, 0, 9, 0, 0x1d, 0, 9, 5, 0x81, 0, 9, 0}) // set, relabel, delete a base key, re-add it
	f.Add([]byte{0x8f, 0, 0, 10, 0x01, 0, 3, 0, 0x82, 1, 0, 0})                              // bulk over base keys, then a relabel and a delete
	// Even keys, odd keys between them, then a run above: the last chunk
	// takes the run and the leaf outgrows 2×64 chunks.
	f.Add([]byte{0xc3, 0, 0, 166, 0xc3, 0, 1, 166, 0x8b, 0x40, 0, 110, 0x01, 0x40, 5, 0, 0x82, 0, 4, 0})
	f.Add([]byte{0x83, 0x20, 0, 255, 0x83, 0x10, 0, 255, 0x83, 0x30, 0, 255, 0x80, 0x20, 17, 9}) // three 12 241-key runs, one overlapping
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, oracle := fuzzBase()
		touched := map[uint64]bool{}
		for k := range oracle.labels {
			touched[k] = true
		}
		for epoch := 0; len(data) >= 4 && epoch < 24; epoch++ {
			parent, parentView := ds, oracle.clone()
			ed := ds.Edit()
			oracle = oracle.clone()
			for len(data) >= 4 {
				ends := applyFuzzOp(ed, oracle, touched, [4]byte(data))
				if data = data[4:]; ends {
					break
				}
			}
			ds = ed.Commit(parent.G)
			probe := slices.Collect(maps.Keys(touched))
			assertSameKeys(t, "after the epoch", ds, oracle, probe)
			assertSameKeys(t, "the parent after the epoch", parent, parentView, probe)
		}
	})
}
