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

// bytes sends b straight through, after what is buffered.
func (e *encoder) bytes(b []byte) {
	_ = e.flush()
	e.put(b)
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
			if at >= len(comm.Members) || comm.Members[at] != m || comm.Tightness[at] != er.Tightness[i] {
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
			e.u32(uint32(len(comm.Result)))
			e.f64s(comm.Result)
			e.u32(uint32(len(comm.TruthVotes)))
			for _, v := range comm.TruthVotes {
				e.u32(uint32(int32(v)))
			}
		}
	}
	return nil
}

// decodeEgos rebuilds every ego with core.NewEgoResult and gives its
// communities' Probs and Result vectors as capped views (s[a:b:b]) of one
// float slab per ego, so an ego replaced by a later epoch frees exactly its
// own bytes.
func decodeEgos(b []byte) ([]*core.EgoResult, error) {
	c := &cursor{b: b}
	n := int(c.u64())
	// An ego takes at least 12 bytes: its id and two counts.
	if c.fail || n < 0 || n > len(b)/12 {
		return nil, fmt.Errorf("ego count corrupt")
	}
	egos := make([]*core.EgoResult, n)
	// Staging for the arrays core.NewEgoResult copies into its slabs.
	var members, idx []uint32
	var tightness []float64
	for i := 0; i < n; i++ {
		ego := graph.NodeID(c.u32())
		nm := c.count(4)
		members = slices.Grow(members[:0], nm)[:nm]
		c.u32s(members)
		idx = slices.Grow(idx[:0], nm)[:nm]
		c.u32s(idx)
		tightness = slices.Grow(tightness[:0], nm)[:nm]
		c.f64s(tightness)
		nc := c.count(12)
		commIdx := make([]int, nm)
		for j, ci := range idx {
			if int64(ci) >= int64(nc) {
				return nil, fmt.Errorf("ego %d: member %d has community index %d of %d", ego, j, ci, nc)
			}
			commIdx[j] = int(ci)
		}
		nf := commFloats(*c, nc)
		if nf < 0 {
			c.fail = true
			break
		}
		// Per-community member lists are rebuilt from the ego-level arrays.
		er := core.NewEgoResult(ego, members, commIdx, tightness, nc)
		slab := make([]float64, nf)
		for _, comm := range er.Comms {
			if np := c.count(8); np > 0 {
				comm.Probs, slab = slab[:np:np], slab[np:]
				c.f64s(comm.Probs)
			}
			if nr := c.count(8); nr > 0 {
				comm.Result, slab = slab[:nr:nr], slab[nr:]
				c.f64s(comm.Result)
			}
			nv := c.count(4)
			if c.fail {
				break
			}
			if nv != len(comm.TruthVotes) {
				return nil, fmt.Errorf("ego %d: %d truth-vote classes, this build has %d",
					er.Ego, nv, len(comm.TruthVotes))
			}
			for j := 0; j < nv; j++ {
				comm.TruthVotes[j] = int(int32(c.u32()))
			}
		}
		if c.fail {
			break
		}
		egos[i] = er
	}
	if err := c.err("egos"); err != nil {
		return nil, err
	}
	return egos, nil
}

// commFloats walks a copy of c over nc community records — Probs, Result
// and truth votes, each behind its count — and returns how many floats
// their Probs and Result hold, -1 if the records are cut short.
func commFloats(c cursor, nc int) int {
	total := 0
	for range nc {
		np := c.count(8)
		c.take(8 * np)
		nr := c.count(8)
		c.take(8 * nr)
		c.take(4 * c.count(4))
		total += np + nr
	}
	if c.fail {
		return -1
	}
	return total
}

// ---- preds section --------------------------------------------------

// encodePreds serializes the Phase III output: edge keys (ascending),
// one label byte per edge, and the flat probability backing array. It
// reads the store's chunks in place, one column at a time.
func encodePreds(e *encoder, st *core.EdgeStore) {
	e.u64(uint64(st.Len()))
	e.u32(uint32(st.Classes()))
	for ci := range st.NumChunks() {
		keys, _, _ := st.Chunk(ci)
		e.u64s(keys)
	}
	for ci := range st.NumChunks() {
		_, labels, _ := st.Chunk(ci)
		for _, l := range labels {
			e.u8(byte(int8(l)))
		}
	}
	for ci := range st.NumChunks() {
		_, _, probs := st.Chunk(ci)
		e.f64s(probs)
	}
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
