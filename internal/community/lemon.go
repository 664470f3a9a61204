package community

import (
	"math"
	"slices"

	"locec/internal/graph"
)

const (
	// lemonWalkSteps is the initial lazy random-walk length.
	lemonWalkSteps = 3
	// lemonSubspaceDim is the Krylov subspace dimension.
	lemonSubspaceDim = 3
	// lemonMinNormIters bounds the projected-subgradient refinement of
	// the sparse indicator.
	lemonMinNormIters = 20
)

// growLemon implements a simplified LEMON — Li, Huang, Chen & Zhang,
// "Uncovering the small community structure in large networks: a local
// spectral approach" (WWW 2015) — sized for the ego networks LoCEC runs
// it on:
//
//  1. a short lazy random walk diffuses probability mass from the seed,
//     truncating support to the walk's reach (the "local" part);
//  2. successive walk iterates span a small Krylov subspace approximating
//     the leading local eigenvectors;
//  3. a projected-subgradient pass looks for the sparsest nonnegative
//     indicator in that subspace with unit mass on the seed (the min
//     one-norm program of the paper, solved approximately);
//  4. a conductance sweep over the indicator's ranking picks the
//     community, trimmed to the connected component containing the seed.
//
// Everything is deterministic: support is kept sorted so floating-point
// accumulation order is fixed, and ties in the sweep break by node ID.
func growLemon(g *graph.Graph, seed graph.NodeID) []graph.NodeID {
	n := g.NumNodes()
	if g.Degree(seed) == 0 {
		return []graph.NodeID{seed}
	}

	// Lazy walk state: p over the whole (small) ego graph, with a sorted
	// support list so iteration order — and hence float summation — is
	// deterministic.
	p := make([]float64, n)
	p[seed] = 1
	inSupport := make([]bool, n)
	inSupport[seed] = true
	support := []graph.NodeID{seed}
	step := func(x []float64) []float64 {
		y := make([]float64, n)
		var fresh []graph.NodeID
		for _, u := range support {
			if x[u] == 0 {
				continue
			}
			nb := g.Neighbors(u)
			y[u] += x[u] / 2
			w := x[u] / (2 * float64(len(nb)))
			for _, v := range nb {
				y[v] += w
				if !inSupport[v] {
					inSupport[v] = true
					fresh = append(fresh, v)
				}
			}
		}
		if len(fresh) > 0 {
			support = append(support, fresh...)
			slices.Sort(support)
		}
		return y
	}
	for i := 0; i < lemonWalkSteps; i++ {
		p = step(p)
	}

	// Krylov subspace from successive iterates, orthonormalized by
	// modified Gram–Schmidt. Near-dependent iterates are dropped.
	var V [][]float64
	cur := slices.Clone(p)
	for len(V) < lemonSubspaceDim {
		q := slices.Clone(cur)
		for _, b := range V {
			d := dot(q, b, support)
			axpy(q, b, -d, support)
		}
		norm := math.Sqrt(dot(q, q, support))
		if norm < 1e-12 {
			break
		}
		scale(q, 1/norm, support)
		V = append(V, q)
		cur = step(cur)
	}

	// Min one-norm refinement: start from the diffusion vector projected
	// into the subspace, take subgradient steps against ||y||_1, project
	// back into span(V), clip negatives and renormalize the seed entry.
	// If the program degenerates (seed mass vanishes) the raw diffusion
	// scores stand in — the sweep below still yields a valid community.
	score := p
	if len(V) > 0 {
		y := project(V, p, n, support)
		ok := true
		for it := 0; it < lemonMinNormIters && ok; it++ {
			sg := make([]float64, n)
			for _, u := range support {
				if y[u] > 0 {
					sg[u] = 1
				} else if y[u] < 0 {
					sg[u] = -1
				}
			}
			gp := project(V, sg, n, support)
			eta := 0.05 / float64(it+1)
			for _, u := range support {
				y[u] -= eta * gp[u]
			}
			y = project(V, y, n, support)
			if y[seed] <= 1e-9 {
				ok = false
				break
			}
			inv := 1 / y[seed]
			for _, u := range support {
				y[u] *= inv
			}
		}
		if ok && y[seed] > 1e-9 {
			for _, u := range support {
				if y[u] < 0 {
					y[u] = 0
				}
			}
			score = y
		}
	}

	// Conductance sweep over the score ranking: take the prefix (among
	// prefixes containing the seed) minimizing cut(S)/vol(S).
	type ranked struct {
		v graph.NodeID
		s float64
	}
	var order []ranked
	for _, u := range support {
		if score[u] > 0 {
			order = append(order, ranked{u, score[u]})
		}
	}
	slices.SortFunc(order, func(a, b ranked) int {
		switch {
		case a.s > b.s:
			return -1
		case a.s < b.s:
			return 1
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return 0
		}
	})
	if len(order) == 0 {
		return []graph.NodeID{seed}
	}
	inS := make([]bool, n)
	cut, vol := 0, 0
	bestPhi := math.Inf(1)
	bestK := 0
	haveSeed := false
	for k, r := range order {
		nb := g.Neighbors(r.v)
		vol += len(nb)
		for _, v := range nb {
			if inS[v] {
				cut--
			} else {
				cut++
			}
		}
		inS[r.v] = true
		if r.v == seed {
			haveSeed = true
		}
		if haveSeed && vol > 0 {
			phi := float64(cut) / float64(vol)
			if phi < bestPhi-1e-12 {
				bestPhi = phi
				bestK = k + 1
			}
		}
	}
	if bestK == 0 {
		return []graph.NodeID{seed}
	}
	members := make([]graph.NodeID, 0, bestK)
	inComm := make([]bool, n)
	for _, r := range order[:bestK] {
		members = append(members, r.v)
		inComm[r.v] = true
	}
	return seedComponent(g, seed, members, inComm)
}

// seedComponent trims a candidate member set to the connected component
// containing the seed — sweep prefixes can be disconnected, and a local
// community must not be.
func seedComponent(g *graph.Graph, seed graph.NodeID, members []graph.NodeID, inComm []bool) []graph.NodeID {
	keep := make([]bool, len(inComm))
	keep[seed] = true
	queue := []graph.NodeID{seed}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if inComm[v] && !keep[v] {
				keep[v] = true
				queue = append(queue, v)
			}
		}
	}
	out := members[:0]
	for _, u := range members {
		if keep[u] {
			out = append(out, u)
		}
	}
	return out
}

// dot, axpy, scale and project operate on vectors restricted to the sorted
// support list, keeping accumulation order deterministic.
func dot(a, b []float64, support []graph.NodeID) float64 {
	s := 0.0
	for _, u := range support {
		s += a[u] * b[u]
	}
	return s
}

func axpy(a, b []float64, c float64, support []graph.NodeID) {
	for _, u := range support {
		a[u] += c * b[u]
	}
}

func scale(a []float64, c float64, support []graph.NodeID) {
	for _, u := range support {
		a[u] *= c
	}
}

// project returns V Vᵀ x for the orthonormal columns V.
func project(V [][]float64, x []float64, n int, support []graph.NodeID) []float64 {
	out := make([]float64, n)
	for _, b := range V {
		d := dot(x, b, support)
		axpy(out, b, d, support)
	}
	return out
}
