package gbdt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// A saved model is its flattened forest, little-endian (docs/FORMATS.md,
// the payload of an artifact's "model" section for LoCEC-XGB runs):
//
//	magic "GBDT"
//	u32 Rounds, MaxDepth, Classes, features; i64 Seed
//	f64 LearningRate, Lambda, Gamma, MinChildWeight, Subsample, ColSample
//	u32 trees, nodes
//	Roots     [trees]i32
//	Feature   [nodes]i32
//	Child     [nodes]i32
//	Threshold [nodes]f64
//	Value     [nodes]f64
//
// Models saved before the forest layout are JSON; Load still reads them
// (their first byte is '{'), Save never writes them.
const (
	magic       = "GBDT"
	headerBytes = len(magic) + 4*4 + 8 + 6*8 + 2*4
	nodeBytes   = 4 + 4 + 8 + 8
)

// Save writes the trained model in the forest layout.
func (m *Model) Save(w io.Writer) error {
	f, c := m.forest, &m.cfg
	b := make([]byte, 0, headerBytes+4*len(f.Roots)+nodeBytes*len(f.Feature))
	b = append(b, magic...)
	for _, v := range []int{c.Rounds, c.MaxDepth, c.Classes, m.features} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(c.Seed))
	for _, v := range []float64{c.LearningRate, c.Lambda, c.Gamma, c.MinChildWeight, c.Subsample, c.ColSample} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Roots)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Feature)))
	for _, col := range [][]int32{f.Roots, f.Feature, f.Child} {
		for _, v := range col {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	for _, col := range [][]float64{f.Threshold, f.Value} {
		for _, v := range col {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	_, err := w.Write(b)
	return err
}

// Load reads a model written by Save, or the JSON of an older Save. The
// bytes are checked before anything is allocated for the forest: the
// counts against the bytes left, tree count = rounds × classes, roots
// ascending from 0, and every split node's Feature below the feature
// count, its Child after it and Child+1 inside its own tree — so a
// corrupt model can neither index out of range nor loop at prediction.
func Load(r io.Reader) (*Model, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len())
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("gbdt: load: %w", err)
	}
	b := buf.Bytes()
	if len(b) > 0 && b[0] == '{' {
		var err error
		if b, err = fromJSON(b); err != nil {
			return nil, fmt.Errorf("gbdt: load: %w", err)
		}
	}
	m, err := decode(b)
	if err != nil {
		return nil, fmt.Errorf("gbdt: load: %w", err)
	}
	return m, nil
}

func getU32(b []byte, i int) int32 { return int32(binary.LittleEndian.Uint32(b[4*i:])) }
func getF64(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
}

// decode checks and decodes the forest layout.
func decode(b []byte) (*Model, error) {
	if len(b) < headerBytes || string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("not a gbdt model (%d bytes)", len(b))
	}
	h := b[len(magic):]
	m := &Model{features: int(uint32(getU32(h, 3)))}
	m.cfg = Config{
		Rounds: int(uint32(getU32(h, 0))), MaxDepth: int(uint32(getU32(h, 1))), Classes: int(uint32(getU32(h, 2))),
		Seed:         int64(binary.LittleEndian.Uint64(h[16:])),
		LearningRate: getF64(h[24:], 0), Lambda: getF64(h[24:], 1), Gamma: getF64(h[24:], 2),
		MinChildWeight: getF64(h[24:], 3), Subsample: getF64(h[24:], 4), ColSample: getF64(h[24:], 5),
	}
	trees, nodes := int(uint32(getU32(h, 18))), int(uint32(getU32(h, 19)))
	if m.cfg.Classes < 2 || m.features <= 0 {
		return nil, fmt.Errorf("invalid model header (classes=%d, features=%d)", m.cfg.Classes, m.features)
	}
	if int64(trees) != int64(m.cfg.Rounds)*int64(m.cfg.Classes) {
		return nil, fmt.Errorf("%d trees, want rounds × classes = %d × %d", trees, m.cfg.Rounds, m.cfg.Classes)
	}
	body := b[headerBytes:]
	if int64(len(body)) != 4*int64(trees)+nodeBytes*int64(nodes) {
		return nil, fmt.Errorf("%d bytes after the header, %d trees and %d nodes take %d",
			len(body), trees, nodes, 4*int64(trees)+nodeBytes*int64(nodes))
	}
	roots, feature, child := body[:4*trees], body[4*trees:4*(trees+nodes)], body[4*(trees+nodes):4*(trees+2*nodes)]
	for t := range trees {
		start, end := int(getU32(roots, t)), nodes
		if t+1 < trees {
			end = int(getU32(roots, t+1))
		}
		if t == 0 && start != 0 || start >= end || end > nodes {
			return nil, fmt.Errorf("tree %d spans nodes [%d, %d)", t, start, end)
		}
		for i := start; i < end; i++ {
			ft, c := int(getU32(feature, i)), int(getU32(child, i))
			if ft < -1 || ft >= m.features {
				return nil, fmt.Errorf("node %d splits on feature %d of %d", i, ft, m.features)
			}
			if ft >= 0 && (c <= i || c+1 >= end) {
				return nil, fmt.Errorf("node %d of tree %d (nodes [%d, %d)) has children %d and %d", i, t, start, end, c, c+1)
			}
		}
	}
	if trees == 0 && nodes != 0 {
		return nil, fmt.Errorf("%d nodes in no tree", nodes)
	}
	f := &Forest{
		Roots: make([]int32, trees), Feature: make([]int32, nodes), Child: make([]int32, nodes),
		Threshold: make([]float64, nodes), Value: make([]float64, nodes),
	}
	for i := range f.Roots {
		f.Roots[i] = getU32(roots, i)
	}
	for i := range f.Feature {
		f.Feature[i], f.Child[i] = getU32(feature, i), getU32(child, i)
	}
	floats := body[4*(trees+2*nodes):]
	for i := range f.Threshold {
		f.Threshold[i], f.Value[i] = getF64(floats, i), getF64(floats, nodes+i)
	}
	m.forest = f
	return m, nil
}

// jsonModel is the JSON form a model was saved in before the forest
// layout.
type jsonModel struct {
	Config   Config   `json:"config"`
	Features int      `json:"features"`
	Trees    [][]Tree `json:"trees"`
}

// fromJSON turns a JSON model into the forest layout, which decode then
// checks like any other.
func fromJSON(b []byte) ([]byte, error) {
	var doc jsonModel
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	var trees [][]*Tree
	for ri, round := range doc.Trees {
		if len(round) != doc.Config.Classes {
			return nil, fmt.Errorf("round %d has %d trees, want %d", ri, len(round), doc.Config.Classes)
		}
		row := make([]*Tree, len(round))
		for i := range round {
			if err := validateTree(&round[i], doc.Features); err != nil {
				return nil, fmt.Errorf("round %d tree %d: %w", ri, i, err)
			}
			row[i] = &round[i]
		}
		trees = append(trees, row)
	}
	m := &Model{cfg: doc.Config, features: doc.Features, forest: flatten(trees)}
	var out bytes.Buffer
	err := m.Save(&out)
	return out.Bytes(), err
}

// validateTree checks a tree's child indices before it is flattened,
// whose breadth-first walk would loop on a child that points back, and its
// features, which must fit the forest's int32 below the feature count.
func validateTree(t *Tree, features int) error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("empty tree")
	}
	for i, n := range t.Nodes {
		if n.Feature < 0 {
			continue // leaf
		}
		if n.Feature >= features {
			return fmt.Errorf("node %d splits on feature %d of %d", i, n.Feature, features)
		}
		// Children must exist and point strictly forward (the builder
		// appends children after their parent).
		if n.Left <= i || n.Right <= i || n.Left >= len(t.Nodes) || n.Right >= len(t.Nodes) {
			return fmt.Errorf("node %d has invalid children (%d, %d)", i, n.Left, n.Right)
		}
	}
	return nil
}
