package main

import (
	"strconv"

	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/social"
)

// mix is splitmix64's output function: a cheap bijective scrambler, so
// schedule entry i is a pure function of (seed, i) and needs no stored
// state or pre-generated list.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

type opKind uint8

const (
	opEdge opKind = iota
	opClassifyHot
	opClassifyUnique
	opCommunities
	numOpKinds
)

var opNames = [numOpKinds]string{"edge", "classify_hot", "classify_unique", "communities"}

// classifyBatch is the edge count of every /v1/classify request;
// hotBatches is how many distinct recurring batches exist, few enough to
// stay in the server's 256-entry LRU.
const (
	classifyBatch = 64
	hotBatches    = 64
)

// readOp is one request of the read schedule.
type readOp struct {
	Kind  opKind
	Edge  graph.Edge   // opEdge
	Node  graph.NodeID // opCommunities
	Batch []graph.Edge // classify kinds
}

// readSchedule is the request mix of serve_read and router_read: 70% GET
// /v1/edge uniform over existing edges, 20% POST /v1/classify of 64 edges
// (half drawn from hotBatches recurring batches, half never repeated), 10%
// GET /v1/communities/{node}. Entry i depends only on the seed and i, so a
// faster server sees a longer prefix of the same sequence.
type readSchedule struct {
	seed  uint64
	edges []graph.Edge
	nodes int
}

func newReadSchedule(seed int64, g *graph.Graph) *readSchedule {
	return &readSchedule{seed: mix(uint64(seed)), edges: g.Edges(), nodes: g.NumNodes()}
}

func (s *readSchedule) at(i int) readOp {
	r := mix(s.seed ^ mix(uint64(i)))
	pick := mix(r)
	switch p := r % 100; {
	case p < 70:
		return readOp{Kind: opEdge, Edge: s.edges[pick%uint64(len(s.edges))]}
	case p < 80:
		// A recurring batch is a function of its number alone.
		return readOp{Kind: opClassifyHot, Batch: s.batch(mix(s.seed ^ (pick%hotBatches + 1<<40)))}
	case p < 90:
		return readOp{Kind: opClassifyUnique, Batch: s.batch(pick)}
	default:
		return readOp{Kind: opCommunities, Node: graph.NodeID(pick % uint64(s.nodes))}
	}
}

func (s *readSchedule) batch(key uint64) []graph.Edge {
	out := make([]graph.Edge, classifyBatch)
	for j := range out {
		out[j] = s.edges[mix(key+uint64(j))%uint64(len(s.edges))]
	}
	return out
}

// request renders the op as method, path and body.
func (op readOp) request() (method, path string, body []byte) {
	switch op.Kind {
	case opEdge:
		return "GET", edgePath(op.Edge), nil
	case opCommunities:
		return "GET", "/v1/communities/" + strconv.Itoa(int(op.Node)), nil
	default:
		return "POST", "/v1/classify", classifyBody(op.Batch)
	}
}

func edgePath(e graph.Edge) string {
	return "/v1/edge?u=" + strconv.Itoa(int(e.U)) + "&v=" + strconv.Itoa(int(e.V))
}

func classifyBody(edges []graph.Edge) []byte {
	b := append(make([]byte, 0, 24*len(edges)+16), `{"edges":[`...)
	for i, e := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"u":`...)
		b = strconv.AppendInt(b, int64(e.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(e.V), 10)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

// mutationSchedule generates the write workload's operations against a
// client-side mirror of the graph, so every add is an absent pair at
// distance two and every remove or relabel names an edge present when it
// is generated: no operation is refused. 60% add, 25% remove, 15% relabel,
// each starting from a node drawn uniformly.
type mutationSchedule struct {
	state    uint64
	adj      [][]graph.NodeID
	present  map[uint64]bool
	numEdges int
}

func newMutationSchedule(seed int64, g *graph.Graph) *mutationSchedule {
	s := &mutationSchedule{
		state:    mix(uint64(seed) ^ 0x6d75746174696f6e),
		adj:      make([][]graph.NodeID, g.NumNodes()),
		present:  make(map[uint64]bool, g.NumEdges()),
		numEdges: g.NumEdges(),
	}
	g.ForEachEdge(func(u, v graph.NodeID) {
		s.adj[u] = append(s.adj[u], v)
		s.adj[v] = append(s.adj[v], u)
		s.present[(graph.Edge{U: u, V: v}).Key()] = true
	})
	return s
}

func (s *mutationSchedule) rand() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

// mutationLabels are the labels an add or relabel carries; wireLabels are
// their names in a POST /v1/mutations body.
var (
	mutationLabels = []social.Label{social.Colleague, social.Family, social.Schoolmate}
	wireLabels     = map[social.Label]string{social.Colleague: "colleague", social.Family: "family", social.Schoolmate: "schoolmate"}
)

// next generates the next mutation and applies it to the mirror.
func (s *mutationSchedule) next() core.Mutation {
	for {
		r := s.rand()
		u := graph.NodeID(s.rand() % uint64(len(s.adj)))
		// Endpoints keep at least two friends so no ego network empties.
		if len(s.adj[u]) < 3 {
			continue
		}
		w := s.adj[u][s.rand()%uint64(len(s.adj[u]))]
		label := mutationLabels[s.rand()%uint64(len(mutationLabels))]
		switch p := r % 100; {
		case p < 60:
			if len(s.adj[w]) == 0 {
				continue
			}
			v := s.adj[w][s.rand()%uint64(len(s.adj[w]))]
			k := (graph.Edge{U: u, V: v}).Key()
			if v == u || s.present[k] {
				continue
			}
			s.adj[u] = append(s.adj[u], v)
			s.adj[v] = append(s.adj[v], u)
			s.present[k] = true
			s.numEdges++
			return core.Mutation{Kind: core.MutAdd, U: u, V: v, Label: label, Revealed: true}
		case p < 85:
			if len(s.adj[w]) < 3 {
				continue
			}
			s.adj[u] = without(s.adj[u], w)
			s.adj[w] = without(s.adj[w], u)
			delete(s.present, (graph.Edge{U: u, V: w}).Key())
			s.numEdges--
			return core.Mutation{Kind: core.MutRemove, U: u, V: w}
		default:
			return core.Mutation{Kind: core.MutRelabel, U: u, V: w, Label: label, Revealed: true}
		}
	}
}

func without(xs []graph.NodeID, x graph.NodeID) []graph.NodeID {
	for i, v := range xs {
		if v == x {
			xs[i] = xs[len(xs)-1]
			return xs[:len(xs)-1]
		}
	}
	return xs
}

// neighbourhood lists up to limit present edges around a mutation: the
// mutated edge first when it still exists, then edges incident to its
// endpoints, then edges of their friends. These are the reads a caller
// makes after a write, and the edges whose prediction the write can move.
func (s *mutationSchedule) neighbourhood(m core.Mutation, limit int) []graph.Edge {
	out := make([]graph.Edge, 0, limit)
	seen := make(map[uint64]bool, limit)
	add := func(a, b graph.NodeID) {
		k := (graph.Edge{U: a, V: b}).Key()
		if len(out) < limit && s.present[k] && !seen[k] {
			seen[k] = true
			out = append(out, graph.EdgeFromKey(k))
		}
	}
	add(m.U, m.V)
	for _, centre := range []graph.NodeID{m.U, m.V} {
		for _, f := range s.adj[centre] {
			add(centre, f)
		}
	}
	for _, centre := range []graph.NodeID{m.U, m.V} {
		for _, f := range s.adj[centre] {
			for _, ff := range s.adj[f] {
				if len(out) == limit {
					return out
				}
				add(f, ff)
			}
		}
	}
	return out
}

// mutationBody renders one mutation as a wait:true POST /v1/mutations body.
func mutationBody(m core.Mutation) []byte {
	b := append(make([]byte, 0, 128), `{"wait":true,"mutations":[{"op":"`...)
	b = append(b, m.Kind.String()...)
	b = append(b, `","u":`...)
	b = strconv.AppendInt(b, int64(m.U), 10)
	b = append(b, `,"v":`...)
	b = strconv.AppendInt(b, int64(m.V), 10)
	if m.Kind != core.MutRemove {
		b = append(b, `,"label":"`...)
		b = append(b, wireLabels[m.Label]...)
		b = append(b, `","revealed":true`...)
	}
	return append(b, `}]}`...)
}
