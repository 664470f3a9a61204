package core

import (
	"math"
	"sort"

	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/tensor"
)

// InteractFeatures computes I_u^C for every member u of community C per
// Eq. 1–2: each dimension is u's interaction volume with other members,
// normalized by the community's total internal volume on that dimension.
// Rows align with c.Members and are cut from one backing array.
// Dimensions whose community total is zero yield zeros (the all-dormant
// community edge case).
func InteractFeatures(ds *social.Dataset, c *LocalCommunity) [][]float64 {
	nd := int(social.NumInteractionDims)
	flat := make([]float64, (len(c.Members)+1)*nd)
	interactInto(flat, ds, c)
	rows := make([][]float64, len(c.Members))
	for i := range rows {
		rows[i] = flat[i*nd : (i+1)*nd : (i+1)*nd]
	}
	return rows
}

// interactInto is InteractFeatures on a caller-owned zeroed buffer of
// (len(c.Members)+1)·|I| values: member i's row at flat[i·|I|:], the
// per-dimension community totals in the last |I| slots.
func interactInto(flat []float64, ds *social.Dataset, c *LocalCommunity) {
	nd := int(social.NumInteractionDims)
	n := len(c.Members)
	totals := flat[n*nd : (n+1)*nd]
	for i := 0; i < n; i++ {
		ri := flat[i*nd : (i+1)*nd]
		for j := i + 1; j < n; j++ {
			iv := ds.InteractionVector(c.Members[i], c.Members[j])
			rj := flat[j*nd : (j+1)*nd]
			for d := 0; d < nd; d++ {
				v := iv[d]
				if v == 0 {
					continue
				}
				ri[d] += v
				rj[d] += v
				totals[d] += v
			}
		}
	}
	for d := 0; d < nd; d++ {
		if totals[d] == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			flat[i*nd+d] /= totals[d]
		}
	}
}

// FeatureMatrix builds the k×(|I|+|f|) community feature matrix of
// Algorithm 1: member rows [I_u^C, f_u] ordered by descending tightness,
// truncated to the top k and zero-padded when the community is smaller.
func FeatureMatrix(ds *social.Dataset, c *LocalCommunity, k int) *tensor.Matrix {
	order := make([]int, len(c.Members))
	for i := range order {
		order[i] = i
	}
	// Order members by descending tightness (Algorithm 1's max-heap);
	// break ties by node ID for determinism.
	sort.Slice(order, func(a, b int) bool {
		if c.Tightness[order[a]] != c.Tightness[order[b]] {
			return c.Tightness[order[a]] > c.Tightness[order[b]]
		}
		return c.Members[order[a]] < c.Members[order[b]]
	})
	return matrixInOrder(ds, c, k, order)
}

// FeatureMatrixShuffled is the row-ordering ablation: members are placed
// in a seeded random order instead of by tightness. Comparing it against
// FeatureMatrix quantifies how much Algorithm 1's ordering contributes.
func FeatureMatrixShuffled(ds *social.Dataset, c *LocalCommunity, k int, seed int64) *tensor.Matrix {
	order := make([]int, len(c.Members))
	for i := range order {
		order[i] = i
	}
	// Seeded per-community shuffle (xorshift) keeps the run deterministic
	// without threading an *rand.Rand through parallel workers.
	s := uint64(seed) ^ (uint64(c.Ego)+1)*0x9e3779b97f4a7c15
	if len(c.Members) > 0 {
		s ^= uint64(c.Members[0]) << 32
	}
	for i := len(order) - 1; i > 0; i-- {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		j := int(s % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return matrixInOrder(ds, c, k, order)
}

func matrixInOrder(ds *social.Dataset, c *LocalCommunity, k int, order []int) *tensor.Matrix {
	nd := int(social.NumInteractionDims)
	nf := ds.NumFeatureDims()
	m := tensor.NewMatrix(k, nd+nf)
	inter := InteractFeatures(ds, c)
	rows := len(order)
	if rows > k {
		rows = k
	}
	for r := 0; r < rows; r++ {
		i := order[r]
		row := m.Row(r)
		copy(row[:nd], inter[i])
		copy(row[nd:], ds.UserFeatures[c.Members[i]])
	}
	return m
}

// PooledFeatures computes the LoCEC-XGB community representation: the mean
// and standard deviation of every feature dimension over ALL members
// (k-independent, as the paper notes). Layout: [means..., stds...].
func PooledFeatures(ds *social.Dataset, c *LocalCommunity) []float64 {
	return new(pooler).features(ds, c)
}

// pooler is PooledFeatures for a run of communities: the pooled vector and
// the member rows share one flat scratch, and features returns a view of
// it valid until the next call. One per worker block, made by newPooler
// for the block's largest community so the block allocates it once.
type pooler struct {
	flat []float64 // [pooled vector | member interaction rows | totals]
}

// pooledWidth is the length of a pooled vector: [means..., stds...].
func pooledWidth(ds *social.Dataset) int {
	return 2 * (int(social.NumInteractionDims) + ds.NumFeatureDims())
}

func newPooler(ds *social.Dataset, comms []*LocalCommunity) pooler {
	most := 0
	for _, c := range comms {
		most = max(most, len(c.Members))
	}
	return pooler{flat: make([]float64, pooledWidth(ds)+(most+1)*int(social.NumInteractionDims))}
}

func (p *pooler) features(ds *social.Dataset, c *LocalCommunity) []float64 {
	nd := int(social.NumInteractionDims)
	nf := ds.NumFeatureDims()
	w := nd + nf
	need := 2*w + (len(c.Members)+1)*nd
	if cap(p.flat) < need {
		p.flat = make([]float64, need)
	}
	clear(p.flat[:need])
	out, inter := p.flat[:2*w:2*w], p.flat[2*w:need]
	interactInto(inter, ds, c)
	// The sums build up in the halves of out that the mean and the
	// standard deviation then replace.
	sum, sq := out[:w], out[w:]
	for i, u := range c.Members {
		for d, v := range inter[i*nd : (i+1)*nd] {
			sum[d] += v
			sq[d] += v * v
		}
		f := ds.UserFeatures[u]
		for d, v := range f[:min(nf, len(f))] {
			sum[nd+d] += v
			sq[nd+d] += v * v
		}
	}
	n := float64(len(c.Members))
	for d := 0; d < w; d++ {
		mu := sum[d] / n
		variance := sq[d]/n - mu*mu
		if variance < 0 {
			variance = 0
		}
		out[d] = mu
		out[w+d] = math.Sqrt(variance)
	}
	return out
}

// EdgeFeatureVector builds f⟨u,v⟩ per Eq. 4 from the two endpoint-side
// communities: [tightness(u,Cu), tightness(v,Cv), r_Cu, r_Cv]. Endpoints
// are ordered canonically (u < v) so train and predict agree.
func EdgeFeatureVector(egoResults []*EgoResult, u, v graph.NodeID) []float64 {
	return AppendEdgeFeatures(nil, egoResults, u, v)
}

// AppendEdgeFeatures appends f⟨u,v⟩ to dst and returns the extended slice
// — the allocation-free form of EdgeFeatureVector for combiner workers
// that reuse one scratch buffer per chunk (pass dst[:0]).
func AppendEdgeFeatures(dst []float64, egoResults []*EgoResult, u, v graph.NodeID) []float64 {
	if u > v {
		u, v = v, u
	}
	// Cu: community u resides in within v's ego network, and vice versa.
	cu, tu := egoResults[v].CommunityOf(u)
	cv, tv := egoResults[u].CommunityOf(v)
	dst = append(dst, tu, tv)
	dst = append(dst, cu.Result...)
	dst = append(dst, cv.Result...)
	return dst
}
