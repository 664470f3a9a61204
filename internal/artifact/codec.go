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
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

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

func (e *encoder) u8(v byte)     { e.room(1); e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32)  { e.room(4); e.buf = appendU32(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.room(8); e.buf = appendU64(e.buf, v) }
func (e *encoder) f64(v float64) { e.room(8); e.buf = appendF64(e.buf, v) }

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

func (c *cursor) f64() float64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(getU64(b))
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
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			e.u32(v)
		}
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
	for i := range offsets {
		offsets[i] = int32(c.u32())
	}
	if c.fail || m > (len(b)-c.off)/4 {
		return nil, fmt.Errorf("graph adjacency truncated")
	}
	adj := make([]graph.NodeID, m)
	for i := range adj {
		adj[i] = graph.NodeID(c.u32())
	}
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
		for _, m := range er.Members {
			e.u32(m)
		}
		cursors = slices.Grow(cursors[:0], len(er.Comms))[:len(er.Comms)]
		clear(cursors)
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
		for _, t := range er.Tightness {
			e.f64(t)
		}
		e.u32(uint32(len(er.Comms)))
		for _, comm := range er.Comms {
			e.u32(uint32(len(comm.Probs)))
			for _, p := range comm.Probs {
				e.f64(p)
			}
			e.u32(uint32(len(comm.Result)))
			for _, v := range comm.Result {
				e.f64(v)
			}
			e.u32(uint32(len(comm.TruthVotes)))
			for _, v := range comm.TruthVotes {
				e.u32(uint32(int32(v)))
			}
		}
	}
	return nil
}

func decodeEgos(b []byte) ([]*core.EgoResult, error) {
	c := &cursor{b: b}
	n := int(c.u64())
	if c.fail || n < 0 || n > len(b) {
		return nil, fmt.Errorf("ego count corrupt")
	}
	egos := make([]*core.EgoResult, n)
	// Staging for the two arrays core.NewEgoResult copies into its slabs.
	var members []graph.NodeID
	var tightness []float64
	for i := 0; i < n; i++ {
		ego := graph.NodeID(c.u32())
		nm := c.count(4)
		members = members[:0]
		for j := 0; j < nm; j++ {
			members = append(members, graph.NodeID(c.u32()))
		}
		commIdx := make([]int, nm)
		for j := range commIdx {
			commIdx[j] = int(c.u32())
		}
		tightness = tightness[:0]
		for j := 0; j < nm; j++ {
			tightness = append(tightness, c.f64())
		}
		nc := c.count(12)
		for j, ci := range commIdx {
			if ci < 0 || ci >= nc {
				return nil, fmt.Errorf("ego %d: member %d has community index %d of %d", ego, j, ci, nc)
			}
		}
		// Per-community member lists are rebuilt from the ego-level arrays.
		er := core.NewEgoResult(ego, members, commIdx, tightness, nc)
		for _, comm := range er.Comms {
			if np := c.count(8); np > 0 {
				comm.Probs = make([]float64, np)
				for j := range comm.Probs {
					comm.Probs[j] = c.f64()
				}
			}
			if nr := c.count(8); nr > 0 {
				comm.Result = make([]float64, nr)
				for j := range comm.Result {
					comm.Result[j] = c.f64()
				}
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

// ---- preds section --------------------------------------------------

// encodePreds serializes the Phase III output: edge keys (ascending),
// one label byte per edge, and the flat probability backing array. It
// reads the store's chunks in place, one column at a time.
func encodePreds(e *encoder, st *core.EdgeStore) {
	e.u64(uint64(st.Len()))
	e.u32(uint32(st.Classes()))
	for ci := range st.NumChunks() {
		keys, _, _ := st.Chunk(ci)
		for _, k := range keys {
			e.u64(k)
		}
	}
	for ci := range st.NumChunks() {
		_, labels, _ := st.Chunk(ci)
		for _, l := range labels {
			e.u8(byte(int8(l)))
		}
	}
	for ci := range st.NumChunks() {
		_, _, probs := st.Chunk(ci)
		for _, p := range probs {
			e.f64(p)
		}
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
	for i := range keys {
		keys[i] = c.u64()
	}
	raw := c.take(n)
	labels := make([]social.Label, n)
	for i := range labels {
		if raw != nil {
			labels[i] = social.Label(int8(raw[i]))
		}
	}
	probs := make([]float64, n*classes)
	for i := range probs {
		probs[i] = c.f64()
	}
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
			for _, v := range row {
				e.f64(v)
			}
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
			for _, v := range row {
				e.f64(v)
			}
		}
		e.u64(uint64(len(lkeys)))
		for _, k := range lkeys {
			e.u64(k)
			e.u8(byte(int8(ds.TrueLabel(k))))
		}
		e.u64(uint64(len(rkeys)))
		for _, k := range rkeys {
			e.u64(k)
		}
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

func decodeDataset(b []byte) (*social.Dataset, error) {
	c := &cursor{b: b}
	nusers := int(c.u64())
	fdim := int(c.u32())
	if c.fail || nusers < 0 || fdim < 0 || fdim > 1<<20 ||
		(fdim > 0 && nusers > (len(b)-c.off)/(8*fdim)) || nusers > len(b) {
		return nil, fmt.Errorf("dataset header corrupt (users=%d, fdim=%d)", nusers, fdim)
	}
	ds := &social.Dataset{UserFeatures: make([][]float64, nusers)}
	flat := make([]float64, nusers*fdim)
	for i := range ds.UserFeatures {
		row := flat[i*fdim : (i+1)*fdim : (i+1)*fdim]
		for j := range row {
			row[j] = c.f64()
		}
		ds.UserFeatures[i] = row
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
	for i := 0; i < ninter; i++ {
		k := c.u64()
		row := make([]float64, idim)
		for j := range row {
			row[j] = c.f64()
		}
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
