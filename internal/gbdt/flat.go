package gbdt

// Forest is the flattened structure-of-arrays form of a trained ensemble,
// built once after training (or loading) and used by every inference
// entry point. Nodes of all trees live in four parallel arrays laid out
// in per-tree BFS order, so a tree walk touches a short contiguous prefix
// instead of chasing 40-byte node structs — and because BFS emits both
// children of a node together, the right child is always Child+1, which
// turns the branch decision into an index increment.
type Forest struct {
	Feature   []int32   // split feature per node; -1 marks a leaf
	Threshold []float64 // go left (Child) if x[Feature] < Threshold, else right (Child+1)
	Child     []int32   // left-child index; right child is Child+1 (0 for leaves)
	Value     []float64 // leaf value (0 for internal nodes)
	Orig      []int32   // node's index in its source Tree.Nodes (the leaf index walk returns)
	Roots     []int32   // root node index per tree, round-major (round*classes + class)
}

// flatten lowers the pointer trees into one SoA forest.
func flatten(trees [][]*Tree) *Forest {
	total := 0
	ntrees := 0
	for _, round := range trees {
		for _, t := range round {
			total += len(t.Nodes)
			ntrees++
		}
	}
	f := &Forest{
		Feature:   make([]int32, 0, total),
		Threshold: make([]float64, 0, total),
		Child:     make([]int32, 0, total),
		Value:     make([]float64, 0, total),
		Orig:      make([]int32, 0, total),
		Roots:     make([]int32, 0, ntrees),
	}
	queue := make([]int32, 0, 64)
	for _, round := range trees {
		for _, t := range round {
			f.Roots = append(f.Roots, int32(len(f.Feature)))
			queue = f.appendTree(t, queue[:0])
		}
	}
	return f
}

// appendTree emits one tree in BFS order. Children are enqueued as a
// pair, so they land in adjacent slots and the left-child index fully
// encodes both. The grown queue is returned for reuse.
func (f *Forest) appendTree(t *Tree, queue []int32) []int32 {
	base := int32(len(f.Feature))
	queue = append(queue, 0)
	for q := 0; q < len(queue); q++ {
		n := &t.Nodes[queue[q]]
		if n.Feature < 0 {
			f.Feature = append(f.Feature, -1)
			f.Threshold = append(f.Threshold, 0)
			f.Child = append(f.Child, 0)
			f.Value = append(f.Value, n.Value)
		} else {
			childPos := base + int32(len(queue))
			queue = append(queue, int32(n.Left), int32(n.Right))
			f.Feature = append(f.Feature, int32(n.Feature))
			f.Threshold = append(f.Threshold, n.Threshold)
			f.Child = append(f.Child, childPos)
			f.Value = append(f.Value, 0)
		}
		f.Orig = append(f.Orig, queue[q])
	}
	return queue
}

// NumTrees returns the forest's tree count.
func (f *Forest) NumTrees() int { return len(f.Roots) }

// walk routes x through tree ti and returns the leaf value plus the
// leaf's index in the source tree's node slice.
func (f *Forest) walk(ti int, x []float64) (float64, int32) {
	i := f.Roots[ti]
	for {
		ft := f.Feature[i]
		if ft < 0 {
			return f.Value[i], f.Orig[i]
		}
		c := f.Child[i]
		// NaN comparisons are false, matching the training-time
		// partition: non-left goes right.
		if !(x[ft] < f.Threshold[i]) {
			c++
		}
		i = c
	}
}

// MarginsInto accumulates every tree's leaf value for x into dst, which
// must hold classes entries and is fully overwritten. Trees are stored
// round-major, so tree j contributes to class j % classes.
func (f *Forest) MarginsInto(x []float64, dst []float64) {
	for c := range dst {
		dst[c] = 0
	}
	classes := len(dst)
	for ti := range f.Roots {
		v, _ := f.walk(ti, x)
		dst[ti%classes] += v
	}
}

// LeafValuesInto writes each tree's leaf value for x into dst (length
// NumTrees) — the boosted-tree embedding in its zero-allocation form.
func (f *Forest) LeafValuesInto(x []float64, dst []float64) {
	for ti := range f.Roots {
		dst[ti], _ = f.walk(ti, x)
	}
}
