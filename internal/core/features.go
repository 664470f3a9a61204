package core

import (
	"cmp"
	"math"
	"slices"

	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/tensor"
)

// interactInto computes I_u^C for every member u of community C per
// Eq. 1–2: each dimension is u's interaction volume with other members,
// normalized by the community's total internal volume on that dimension.
// Dimensions whose community total is zero yield zeros (the all-dormant
// community edge case). It writes into a caller-owned zeroed buffer of
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
	m := tensor.NewMatrix(k, matrixWidth(ds))
	new(matrixScratch).fill(m.Data, ds, c, k, false, 0)
	return m
}

// matrixWidth is |I|+|f|, the column count of a feature matrix.
func matrixWidth(ds *social.Dataset) int {
	return int(social.NumInteractionDims) + ds.NumFeatureDims()
}

// matrixScratch is what building a feature matrix needs besides the
// matrix: the member order and the interaction rows. A worker keeps one
// for its block, so once grown to the block's largest community it builds
// matrices without allocating.
type matrixScratch struct {
	order []int
	inter []float64
}

// fill writes c's k×(|I|+|f|) matrix into dst, the first k members' rows
// and zeros below. Members go by descending tightness (Algorithm 1's
// max-heap), ties broken by node ID: a total order, so the sort algorithm
// cannot change the rows. With shuffle they go in a seeded per-community
// order (xorshift), which keeps the run deterministic without threading an
// *rand.Rand through parallel workers.
func (s *matrixScratch) fill(dst []float64, ds *social.Dataset, c *LocalCommunity, k int, shuffle bool, seed int64) {
	order := slices.Grow(s.order[:0], len(c.Members))[:len(c.Members)]
	for i := range order {
		order[i] = i
	}
	if shuffle {
		x := uint64(seed) ^ (uint64(c.Ego)+1)*0x9e3779b97f4a7c15
		if len(c.Members) > 0 {
			x ^= uint64(c.Members[0]) << 32
		}
		for i := len(order) - 1; i > 0; i-- {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := int(x % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
	} else {
		slices.SortFunc(order, func(a, b int) int {
			return cmp.Or(cmp.Compare(c.Tightness[b], c.Tightness[a]), cmp.Compare(c.Members[a], c.Members[b]))
		})
	}
	nd, w := int(social.NumInteractionDims), matrixWidth(ds)
	n := (len(c.Members) + 1) * nd
	s.order, s.inter = order, slices.Grow(s.inter[:0], n)[:n]
	clear(s.inter)
	interactInto(s.inter, ds, c)
	clear(dst[:k*w])
	for r, i := range order[:min(k, len(order))] {
		row := dst[r*w : (r+1)*w]
		copy(row[:nd], s.inter[i*nd:(i+1)*nd])
		copy(row[nd:], ds.UserFeatures[c.Members[i]])
	}
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

// edgeRowWidth is the width of an AppendEdgeFeatures row: two r_C of NumLabels.
const edgeRowWidth = 2 + 2*social.NumLabels

// AppendEdgeFeatures appends f⟨u,v⟩ per Eq. 4, built from the two
// endpoint-side communities — [tightness(u,Cu), tightness(v,Cv), r_Cu,
// r_Cv] — to dst and returns the extended slice. Endpoints are ordered
// canonically (u < v) so train and predict agree. Combiner workers reuse
// one scratch buffer per chunk (pass dst[:0]).
func AppendEdgeFeatures(dst []float64, egoResults []*EgoResult, u, v graph.NodeID) []float64 {
	if u > v {
		u, v = v, u
	}
	// Cu: community u resides in within v's ego network, and vice versa.
	cu, tu := egoResults[v].CommunityOf(u)
	cv, tv := egoResults[u].CommunityOf(v)
	dst = append(dst, tu, tv)
	dst = append(dst, cu.Probs...)
	dst = append(dst, cv.Probs...)
	return dst
}
