package artifact

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"math"
	"slices"

	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/logreg"
	"locec/internal/social"
)

// All multi-byte values are little-endian. Floats are IEEE-754 bit
// patterns, so round trips are bit-exact. The per-section layouts are
// documented in docs/FORMATS.md; changing any of them is a format-version
// bump.

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// encoder is the one writer every section encoder goes through: a 64 KB
// buffer flushed to w when the next value would not fit, counting and
// checksumming what it sends. The first write error sticks.
type encoder struct {
	w   io.Writer
	buf []byte
	n   uint64 // bytes sent since the section began
	crc uint32 // their CRC-32
	err error
}

func newEncoder() *encoder { return &encoder{buf: make([]byte, 0, 64<<10)} }

// section runs one section encoder into w and returns its length and CRC.
func (e *encoder) section(w io.Writer, write func(*encoder) error) (uint64, uint32, error) {
	e.w, e.n, e.crc, e.err = w, 0, 0, nil
	if err := write(e); err != nil {
		return 0, 0, err
	}
	err := e.flush()
	return e.n, e.crc, err
}

func (e *encoder) put(p []byte) {
	if e.err == nil {
		e.n += uint64(len(p))
		e.crc = crc32.Update(e.crc, crcTable, p)
		_, e.err = e.w.Write(p)
	}
}

func (e *encoder) flush() error {
	e.put(e.buf)
	e.buf = e.buf[:0]
	return e.err
}

func (e *encoder) room(n int) {
	if len(e.buf)+n > cap(e.buf) {
		_ = e.flush()
	}
}

func (e *encoder) u8(v byte)    { e.room(1); e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.room(4); e.buf = appendU32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.room(8); e.buf = appendU64(e.buf, v) }

// span extends the buffer by as many of n values of size bytes as fit,
// flushing first when not even one does, and returns the extension.
func (e *encoder) span(n, size int) []byte {
	e.room(size)
	at := len(e.buf)
	e.buf = e.buf[:at+min(n, (cap(e.buf)-at)/size)*size]
	return e.buf[at:]
}

// u32s, u64s and f64s send a run of values, filling the buffer chunk by
// chunk.
func (e *encoder) u32s(vs []uint32) {
	for len(vs) > 0 {
		b := e.span(len(vs), 4)
		for i := range len(b) / 4 {
			binary.LittleEndian.PutUint32(b[4*i:], vs[i])
		}
		vs = vs[len(b)/4:]
	}
}

func (e *encoder) u64s(vs []uint64) {
	for len(vs) > 0 {
		b := e.span(len(vs), 8)
		for i := range len(b) / 8 {
			binary.LittleEndian.PutUint64(b[8*i:], vs[i])
		}
		vs = vs[len(b)/8:]
	}
}

func (e *encoder) f64s(vs []float64) {
	for len(vs) > 0 {
		b := e.span(len(vs), 8)
		for i := range len(b) / 8 {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(vs[i]))
		}
		vs = vs[len(b)/8:]
	}
}

func getU16(b []byte) uint16 { return binary.LittleEndian.Uint16(b) }
func getU32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
func getU64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// cursor walks a section payload with sticky bounds checking: after the
// first short read every subsequent call returns zero values and err()
// reports the failure, so decoders read straight-line without per-call
// error plumbing yet can never index out of range.
type cursor struct {
	b    []byte
	off  int
	fail bool
}

func (c *cursor) take(n int) []byte {
	if c.fail || n < 0 || len(c.b)-c.off < n {
		c.fail = true
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return getU32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return getU64(b)
}

// u32s, u64s and f64s fill dst from the payload with one bounds check for
// the run; after a short read dst is left as it was.
func (c *cursor) u32s(dst []uint32) {
	b := c.take(4 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = getU32(b[4*i:])
	}
}

func (c *cursor) u64s(dst []uint64) {
	b := c.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = getU64(b[8*i:])
	}
}

func (c *cursor) f64s(dst []float64) {
	b := c.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(getU64(b[8*i:]))
	}
}

// count reads a uint32 length and bounds it against the bytes remaining
// given a minimum encoded size per element, so a corrupted length cannot
// drive a multi-gigabyte allocation.
func (c *cursor) count(elemSize int) int {
	n := int(c.u32())
	if c.fail || n < 0 || (elemSize > 0 && n > (len(c.b)-c.off)/elemSize) {
		c.fail = true
		return 0
	}
	return n
}

func (c *cursor) err(what string) error {
	if c.fail {
		return fmt.Errorf("%s: payload too short or length corrupt at offset %d", what, c.off)
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%s: %d trailing bytes", what, len(c.b)-c.off)
	}
	return nil
}

// ---- graph section --------------------------------------------------

// encodeGraph serializes the graph in flat CSR form, row by row: node
// count, adjacency length, the n+1 row offsets, then the concatenated
// neighbor lists.
func encodeGraph(e *encoder, g *graph.Graph) {
	n := g.NumNodes()
	e.u64(uint64(n))
	e.u64(uint64(2 * g.NumEdges()))
	off := 0
	e.u32(0)
	for u := range n {
		off += g.Degree(graph.NodeID(u))
		e.u32(uint32(off))
	}
	for u := range n {
		e.u32s(g.Neighbors(graph.NodeID(u)))
	}
}

func decodeGraph(b []byte) (*graph.Graph, error) {
	c := &cursor{b: b}
	n := int(c.u64())
	m := int(c.u64())
	// Guard with n > budget-1 rather than n+1 > budget: a crafted
	// n = MaxInt64 overflows n+1 to MinInt64 and would sail past the
	// check into make([]int32, n+1).
	if c.fail || n < 0 || m < 0 || n > (len(b)-c.off)/4-1 {
		return nil, fmt.Errorf("graph header corrupt (n=%d, adj=%d)", n, m)
	}
	offsets := make([]int32, n+1)
	raw := c.take(4 * len(offsets))
	for i := range offsets {
		offsets[i] = int32(getU32(raw[4*i:]))
	}
	if m > (len(b)-c.off)/4 {
		return nil, fmt.Errorf("graph adjacency truncated")
	}
	adj := make([]graph.NodeID, m)
	c.u32s(adj)
	if err := c.err("graph"); err != nil {
		return nil, err
	}
	return graph.NewFromCSR(offsets, adj)
}

// ---- egos section ---------------------------------------------------

// encodeEgos serializes the per-ego Phase I+II output. Per-community
// member lists and tightness values are not stored: they are recoverable
// from the ego-level arrays because core.NewEgoResult fills each community in
// ego-member order — encodeEgos verifies that invariant and fails loudly
// if a producer ever breaks it.
func encodeEgos(e *encoder, egos []*core.EgoResult) error {
	e.u64(uint64(len(egos)))
	var cursors []int
	for _, er := range egos {
		if er == nil {
			return fmt.Errorf("nil ego result")
		}
		if len(er.CommIdx) != len(er.Members) || len(er.Tightness) != len(er.Members) {
			return fmt.Errorf("ego %d: ragged member arrays", er.Ego)
		}
		e.u32(er.Ego)
		e.u32(uint32(len(er.Members)))
		e.u32s(er.Members)
		cursors = slices.Grow(cursors[:0], len(er.Comms))[:len(er.Comms)]
		clear(cursors)
		// The community indices are written as they are checked: the loop
		// visits every member anyway, and needs no staging array.
		for i, m := range er.Members {
			ci := er.CommIdx[i]
			if ci < 0 || ci >= len(er.Comms) {
				return fmt.Errorf("ego %d: community index %d out of range", er.Ego, ci)
			}
			comm := er.Comms[ci]
			at := cursors[ci]
			// Tightness is compared by bit pattern: a NaN a decoded record
			// carries is still the same value in both places.
			if at >= len(comm.Members) || comm.Members[at] != m ||
				math.Float64bits(comm.Tightness[at]) != math.Float64bits(er.Tightness[i]) {
				return fmt.Errorf("ego %d: community %d member order diverges from ego arrays", er.Ego, ci)
			}
			cursors[ci]++
			e.u32(uint32(ci))
		}
		for ci, comm := range er.Comms {
			if cursors[ci] != len(comm.Members) {
				return fmt.Errorf("ego %d: community %d has %d members unaccounted for",
					er.Ego, ci, len(comm.Members)-cursors[ci])
			}
		}
		e.f64s(er.Tightness)
		e.u32(uint32(len(er.Comms)))
		for _, comm := range er.Comms {
			e.u32(uint32(len(comm.Probs)))
			e.f64s(comm.Probs)
			e.u32(uint32(len(comm.TruthVotes)))
			for _, v := range comm.TruthVotes {
				e.u32(uint32(int32(v)))
			}
		}
	}
	return nil
}

// egoWalker steps through the egos section record by record with the
// checks decodeEgos and CutShards share, so both refuse the same records:
// counts bounded by the bytes left, community indices below the record's
// community count, this build's truth-vote width, and Ego == index.
type egoWalker struct {
	c             cursor
	version       int
	n, i          int    // records in the section, records walked
	comms, floats int    // the last record's communities and Probs floats
	buf           []byte // before version 3, the last record less its r_C runs
}

func newEgoWalker(b []byte, version int) (egoWalker, error) {
	w := egoWalker{c: cursor{b: b}, version: version}
	w.n = int(w.c.u64())
	// A record takes at least 12 bytes: its id and two counts.
	if w.c.fail || w.n < 0 || w.n > len(b)/12 {
		return w, fmt.Errorf("ego count corrupt")
	}
	return w, nil
}

// next checks record w.i and returns its bytes as format version 3 lays
// them out: a view of the payload, or before version 3 a copy without the
// r_C runs that is valid until the next call.
func (w *egoWalker) next() ([]byte, error) {
	c := &w.c
	start := c.off
	ego := c.u32()
	nm := c.count(4)
	c.take(4 * nm)
	idx := c.take(4 * nm)
	c.take(8 * nm)
	nc := c.count(12)
	for j := range len(idx) / 4 {
		if ci := getU32(idx[4*j:]); int64(ci) >= int64(nc) {
			return nil, fmt.Errorf("ego %d: member %d has community index %d of %d", ego, j, ci, nc)
		}
	}
	w.comms, w.floats, w.buf = nc, 0, w.buf[:0]
	at := start
	for range nc {
		np := c.count(8)
		c.take(8 * np)
		w.floats += np
		if w.version < 3 {
			w.buf = append(w.buf, c.b[at:c.off]...)
			c.take(8 * c.count(8))
			at = c.off
		}
		nv := c.count(4)
		if c.fail {
			break
		}
		if nv != social.NumLabels {
			return nil, fmt.Errorf("ego %d: %d truth-vote classes, this build has %d", ego, nv, social.NumLabels)
		}
		c.take(4 * nv)
	}
	if c.fail {
		return nil, c.err("egos")
	}
	if ego != uint32(w.i) {
		return nil, fmt.Errorf("ego result at index %d belongs to node %d", w.i, ego)
	}
	w.i++
	if w.version < 3 {
		return append(w.buf, c.b[at:c.off]...), nil
	}
	return c.b[start:c.off], nil
}

// decodeEgos rebuilds every ego in two passes over the section. The first
// walks it to check every record and total its members, communities and
// Probs floats; the second cuts each ego from core.EgoSlabs — the layout
// core.NewEgoResult uses — with its CommIdx from an int slab and its
// communities' Probs as capped views (s[a:b:b]) of the float slab.
//
// The slabs of an immutable snapshot are sized by the totals, once for the
// whole section, so the allocations do not depend on the ego count; its
// egos live as long as the snapshot. A mutable snapshot (one that carries
// its dataset) replaces egos epoch by epoch, and one view would keep a
// whole section-wide slab alive after every ego cut from it is replaced,
// so each of its egos gets slabs of its own, which it frees when an epoch
// replaces it (serve_write_10k's peak RSS read 202 MB with section-wide
// slabs, 161 MB with these).
func decodeEgos(b []byte, version int, mutable bool) ([]*core.EgoResult, error) {
	w, err := newEgoWalker(b, version)
	if err != nil {
		return nil, err
	}
	members, comms, floats, widest := 0, 0, 0, 0
	for range w.n {
		rec, err := w.next()
		if err != nil {
			return nil, err
		}
		nm := int(getU32(rec[4:]))
		members, comms, floats, widest = members+nm, comms+w.comms, floats+w.floats, max(widest, nm)
	}
	if err := w.c.err("egos"); err != nil {
		return nil, err
	}
	egos := make([]*core.EgoResult, w.n)
	var slabs core.EgoSlabs
	var idxSlab []int
	if !mutable {
		slabs, idxSlab = core.NewEgoSlabs(w.n, members, comms, floats), make([]int, members)
	}
	// Staging for the arrays EgoSlabs.Cut copies into its slabs.
	staged, tightness := make([]graph.NodeID, widest), make([]float64, widest)
	w, _ = newEgoWalker(b, version)
	for i := range egos {
		rec, err := w.next()
		if err != nil {
			return nil, err
		}
		// The first pass checked the record, so its counts are read as they are.
		c := cursor{b: rec}
		ego := graph.NodeID(c.u32())
		nm := int(c.u32())
		c.u32s(staged[:nm])
		idx := c.take(4 * nm)
		c.f64s(tightness[:nm])
		nc := int(c.u32())
		if mutable {
			slabs, idxSlab = core.NewEgoSlabs(1, nm, nc, w.floats), make([]int, nm)
		}
		commIdx := idxSlab[:nm:nm]
		idxSlab = idxSlab[nm:]
		for j := range commIdx {
			commIdx[j] = int(getU32(idx[4*j:]))
		}
		er := slabs.Cut(ego, staged[:nm], commIdx, tightness[:nm], nc)
		for _, comm := range er.Comms {
			if np := int(c.u32()); np > 0 {
				comm.Probs = slabs.Floats(np)
				c.f64s(comm.Probs)
			}
			c.u32() // the truth-vote width
			for j := range comm.TruthVotes {
				comm.TruthVotes[j] = int(int32(c.u32()))
			}
		}
		egos[i] = er
	}
	return egos, nil
}

// ---- preds section --------------------------------------------------

// encodePreds serializes the Phase III output: edge keys (ascending),
// one label byte per edge, and the flat probability backing array. It
// reads the store's chunks in place, one column at a time.
func encodePreds(e *encoder, st *core.EdgeStore) {
	e.u64(uint64(st.Len()))
	e.u32(uint32(st.Classes()))
	st.ForEachChunk(func(keys []uint64, _ []social.Label, _ []float64) { e.u64s(keys) })
	st.ForEachChunk(func(_ []uint64, labels []social.Label, _ []float64) {
		for _, l := range labels {
			e.u8(byte(int8(l)))
		}
	})
	st.ForEachChunk(func(_ []uint64, _ []social.Label, probs []float64) { e.f64s(probs) })
}

// decodePreds decodes the section into ex.Edges; NewEdgeStore refuses keys
// that are not strictly increasing.
func decodePreds(b []byte, ex *core.Export) error {
	c := &cursor{b: b}
	n := int(c.u64())
	classes := int(c.u32())
	if c.fail || n < 0 || classes < 0 || classes > 1024 || n > (len(b)-c.off)/(9+8*max(classes, 1)) {
		return fmt.Errorf("preds header corrupt (edges=%d, classes=%d)", n, classes)
	}
	keys := make([]uint64, n)
	c.u64s(keys)
	raw := c.take(n)
	labels := make([]social.Label, n)
	for i := range labels {
		if raw != nil {
			labels[i] = social.Label(int8(raw[i]))
		}
	}
	probs := make([]float64, n*classes)
	c.f64s(probs)
	if err := c.err("preds"); err != nil {
		return err
	}
	var err error
	ex.Edges, err = core.NewEdgeStore(keys, labels, probs, classes)
	return err
}

// ---- dataset section ------------------------------------------------

// datasetSection returns the encoder of the raw problem instance, so a
// snapshot can be mutated after restore: user feature matrix, per-edge
// interaction vectors, ground-truth labels and the revealed set. The graph
// itself is NOT repeated — the dataset shares the artifact's graph
// section. Map entries are written in ascending key order so identical
// datasets produce byte-identical sections; the keys are sorted once here,
// for both of Save's passes.
func datasetSection(ds *social.Dataset) func(*encoder) error {
	// The three per-edge sections are read through the dataset's
	// iterators and accessors, which fold its edit delta on the way out: a
	// dataset that carries edits encodes to the same bytes as its folded
	// form.
	ikeys := sortedKeys(ds.AllInteractions(), len(ds.Interactions)+ds.NumEdits())
	lkeys := sortedKeys(ds.AllTrueLabels(), len(ds.TrueLabels)+ds.NumEdits())
	rkeys := slices.AppendSeq(make([]uint64, 0, len(ds.Revealed)+ds.NumEdits()), ds.AllRevealed())
	slices.Sort(rkeys)
	return func(e *encoder) error {
		e.u64(uint64(len(ds.UserFeatures)))
		e.u32(uint32(ds.NumFeatureDims()))
		for _, row := range ds.UserFeatures {
			e.f64s(row)
		}
		idim := 0
		if len(ikeys) > 0 {
			row, _ := ds.InteractionRow(ikeys[0])
			idim = len(row)
		}
		e.u32(uint32(idim))
		e.u64(uint64(len(ikeys)))
		for _, k := range ikeys {
			e.u64(k)
			row, _ := ds.InteractionRow(k)
			e.f64s(row)
		}
		e.u64(uint64(len(lkeys)))
		for _, k := range lkeys {
			e.u64(k)
			e.u8(byte(int8(ds.TrueLabel(k))))
		}
		e.u64(uint64(len(rkeys)))
		e.u64s(rkeys)
		return nil
	}
}

// sortedKeys returns the keys of a key/value sequence in ascending order;
// sizeHint is the expected count.
func sortedKeys[V any](seq iter.Seq2[uint64, V], sizeHint int) []uint64 {
	keys := make([]uint64, 0, sizeHint)
	for k := range seq {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// decodeDataset decodes the section of a snapshot of nodes users. The
// interaction rows are capped views (s[a:b:b]) of one slab, which stays
// alive while any of them is: retained memory is bounded by the section's
// size, however many rows later epochs replace.
func decodeDataset(b []byte, nodes int) (*social.Dataset, error) {
	c := &cursor{b: b}
	nusers := int(c.u64())
	fdim := int(c.u32())
	if c.fail || nusers < 0 || fdim < 0 || fdim > 1<<20 ||
		(fdim > 0 && nusers > (len(b)-c.off)/(8*fdim)) {
		return nil, fmt.Errorf("dataset header corrupt (users=%d, fdim=%d)", nusers, fdim)
	}
	// Checked before the row table is allocated: with fdim = 0 the
	// payload does not bound nusers, and nodes is the node count the graph
	// section was decoded with.
	if nusers != nodes {
		return nil, fmt.Errorf("dataset section has %d user rows, meta declares %d nodes", nusers, nodes)
	}
	ds := &social.Dataset{UserFeatures: make([][]float64, nusers)}
	flat := make([]float64, nusers*fdim)
	c.f64s(flat)
	for i := range ds.UserFeatures {
		ds.UserFeatures[i] = flat[i*fdim : (i+1)*fdim : (i+1)*fdim]
	}
	idim := int(c.u32())
	if c.fail || idim < 0 || idim > 255 {
		return nil, fmt.Errorf("dataset interaction width corrupt (%d)", idim)
	}
	ninter := int(c.u64())
	if c.fail || ninter < 0 || ninter > (len(b)-c.off)/(8+8*idim) {
		return nil, fmt.Errorf("dataset interaction count corrupt (%d)", ninter)
	}
	ds.Interactions = make(map[uint64][]float64, ninter)
	rows := make([]float64, ninter*idim)
	for i := 0; i < ninter; i++ {
		k := c.u64()
		row := rows[i*idim : (i+1)*idim : (i+1)*idim]
		c.f64s(row)
		if c.fail {
			break
		}
		ds.Interactions[k] = row
	}
	nlab := int(c.u64())
	if c.fail || nlab < 0 || nlab > (len(b)-c.off)/9 {
		return nil, fmt.Errorf("dataset label count corrupt (%d)", nlab)
	}
	ds.TrueLabels = make(map[uint64]social.Label, nlab)
	for i := 0; i < nlab; i++ {
		k := c.u64()
		lb := c.take(1)
		if c.fail {
			break
		}
		l := social.Label(int8(lb[0]))
		if !l.ValidGroundTruth() {
			return nil, fmt.Errorf("dataset label %d for edge %d is not a ground-truth label", int8(lb[0]), k)
		}
		ds.TrueLabels[k] = l
	}
	nrev := int(c.u64())
	if c.fail || nrev < 0 || nrev > (len(b)-c.off)/8 {
		return nil, fmt.Errorf("dataset revealed count corrupt (%d)", nrev)
	}
	ds.Revealed = make(map[uint64]bool, nrev)
	for i := 0; i < nrev; i++ {
		ds.Revealed[c.u64()] = true
	}
	if err := c.err("dataset"); err != nil {
		return nil, err
	}
	return ds, nil
}

// ---- combiner section -----------------------------------------------

// The combiner reuses logreg's own JSON persistence, whose Load validates
// the weight-matrix shape — one validator, not two that can drift.
func encodeCombiner(m *logreg.Model) ([]byte, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeCombiner(b []byte) (*logreg.Model, error) {
	return logreg.Load(bytes.NewReader(b))
}
