package community

import (
	"slices"

	"locec/internal/graph"
)

// shellCutoff stops l-shell growth when a shell's mean emerging degree
// per vertex drops below this fraction of the previous shell's.
const shellCutoff = 0.3

// growLShell implements Bagrow & Bollt's l-shell spreading ("A local
// method for detecting communities", Phys. Rev. E 72, 046108, 2005). The
// community grows one BFS shell at a time: shell 0 is the seed, shell l+1
// is the unvisited neighborhood of shell l. Each shell's emerging degree
// K_l — the number of edges leading from the shell to still-unvisited
// vertices — measures how fast the growth is still expanding. We use the
// mean emerging degree per shell vertex (K_l normalized by shell size, a
// better-behaved statistic than the raw total on the small dense ego
// networks LoCEC runs on): when it drops below shellCutoff times the
// previous shell's, the frontier has collapsed onto a community border
// and growth stops, keeping shells 0..l.
func growLShell(g *graph.Graph, seed graph.NodeID) []graph.NodeID {
	n := g.NumNodes()
	visited := make([]bool, n)
	visited[seed] = true
	members := []graph.NodeID{seed}
	shell := []graph.NodeID{seed}
	prevMean := 0.0
	for first := true; ; first = false {
		K := 0
		inNext := make([]bool, n)
		var next []graph.NodeID
		for _, u := range shell {
			for _, v := range g.Neighbors(u) {
				if visited[v] {
					continue
				}
				K++
				if !inNext[v] {
					inNext[v] = true
					next = append(next, v)
				}
			}
		}
		if K == 0 {
			break // component exhausted
		}
		mean := float64(K) / float64(len(shell))
		if !first && mean < shellCutoff*prevMean {
			break // emerging degree collapsed: the border is here
		}
		slices.Sort(next)
		for _, v := range next {
			visited[v] = true
		}
		members = append(members, next...)
		shell = next
		prevMean = mean
	}
	return members
}
