package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/social"
)

// The reference documents: probability vectors behind pointers, bodies as
// maps, the shapes the read routes encoded before they were typed.
type refProbs struct {
	Colleague  float64 `json:"colleague"`
	Family     float64 `json:"family"`
	Schoolmate float64 `json:"schoolmate"`
}

func newRefProbs(p []float64) *refProbs {
	if len(p) < social.NumLabels {
		return nil
	}
	return &refProbs{Colleague: p[social.Colleague], Family: p[social.Family], Schoolmate: p[social.Schoolmate]}
}

type refEdge struct {
	U     uint32    `json:"u"`
	V     uint32    `json:"v"`
	Found bool      `json:"found"`
	Label string    `json:"label,omitempty"`
	Probs *refProbs `json:"probabilities,omitempty"`
}

type refCommunity struct {
	Members   []uint32  `json:"members"`
	Tightness []float64 `json:"tightness"`
	Label     string    `json:"label"`
	Probs     *refProbs `json:"probabilities"`
}

func refEdgeResult(snap *snapshot, u, v graph.NodeID) refEdge {
	out := refEdge{U: uint32(u), V: uint32(v)}
	if l, p, ok := snap.label(u, v); ok {
		out.Found, out.Label, out.Probs = true, l.String(), newRefProbs(p)
	}
	return out
}

// referenceRead answers a read request against snap by the reference
// rules: every body a map or a pointer-holding struct, encoded by
// json.NewEncoder(w).Encode. It returns the status, the
// X-Snapshot-Version value and the body.
func referenceRead(snap *snapshot, method, target string, body []byte) (int, string, []byte) {
	var buf bytes.Buffer
	status := http.StatusOK
	write := func(st int, v any) {
		status = st
		_ = json.NewEncoder(&buf).Encode(v)
	}
	fail := func(st int, format string, args ...any) {
		write(st, map[string]string{"error": fmt.Sprintf(format, args...)})
	}
	misdirected := func(owner int, what string) {
		write(http.StatusMisdirectedRequest, map[string]any{
			"error": fmt.Sprintf("%s is owned by shard %d; this is shard %d/%d",
				what, owner, snap.shardIndex, snap.shardCount),
			"owner_shard": owner,
			"shard":       fmt.Sprintf("%d/%d", snap.shardIndex, snap.shardCount),
		})
	}
	version := strconv.FormatInt(snap.version, 10)
	ref, _ := url.Parse(target)
	path := ref.Path
	switch {
	case method == http.MethodGet && path == "/v1/edge":
		q := ref.Query()
		u, err := snap.parseNode(q.Get("u"))
		if err != nil {
			fail(http.StatusBadRequest, "u: %v", err)
			break
		}
		v, err := snap.parseNode(q.Get("v"))
		if err != nil {
			fail(http.StatusBadRequest, "v: %v", err)
			break
		}
		if !snap.ownsEdge(u, v) {
			misdirected(snap.ring.OwnerEdge(uint32(u), uint32(v)), fmt.Sprintf("edge {%d,%d}", u, v))
			break
		}
		res := refEdgeResult(snap, u, v)
		if !res.Found {
			fail(http.StatusNotFound, "no friendship {%d,%d}", u, v)
			break
		}
		write(http.StatusOK, res)
	case method == http.MethodPost && path == "/v1/classify":
		var req classifyRequest
		if err := json.Unmarshal(body, &req); err != nil {
			fail(http.StatusBadRequest, "decode: %v", err)
			break
		}
		if len(req.Edges) == 0 {
			fail(http.StatusBadRequest, "no edges in request")
			break
		}
		results := make([]refEdge, len(req.Edges))
		for i, e := range req.Edges {
			u, v := graph.NodeID(e.U), graph.NodeID(e.V)
			if int(e.U) >= snap.ds.G.NumNodes() || int(e.V) >= snap.ds.G.NumNodes() {
				results[i] = refEdge{U: e.U, V: e.V}
				continue
			}
			if !snap.ownsEdge(u, v) {
				misdirected(snap.ring.OwnerEdge(e.U, e.V), fmt.Sprintf("edge {%d,%d}", u, v))
				return status, version, buf.Bytes()
			}
			results[i] = refEdgeResult(snap, u, v)
		}
		resp, err := json.Marshal(map[string]any{"version": snap.version, "results": results})
		if err != nil {
			fail(http.StatusInternalServerError, "encode: %v", err)
			break
		}
		buf.Write(append(resp, '\n'))
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/communities/"):
		node, err := snap.parseNode(strings.TrimPrefix(path, "/v1/communities/"))
		if err != nil {
			fail(http.StatusBadRequest, "%v", err)
			break
		}
		if !snap.ownsNode(node) {
			misdirected(snap.ring.OwnerNode(uint32(node)), fmt.Sprintf("node %d", node))
			break
		}
		ego := snap.res.Egos[node]
		comms := make([]refCommunity, len(ego.Comms))
		for i, c := range ego.Comms {
			members := make([]uint32, len(c.Members))
			for j, m := range c.Members {
				members[j] = uint32(m)
			}
			comms[i] = refCommunity{
				Members:   members,
				Tightness: c.Tightness,
				Label:     social.Label(core.Argmax(c.Probs)).String(),
				Probs:     newRefProbs(c.Probs),
			}
		}
		write(http.StatusOK, map[string]any{"node": node, "version": snap.version, "communities": comms})
	default:
		panic("referenceRead: no route for " + method + " " + target)
	}
	return status, version, buf.Bytes()
}

// readCase is one request of the byte-identity oracle.
type readCase struct {
	name, method, target, body string
}

// assertReadsMatchReference sends each case through h and fails unless
// status, X-Snapshot-Version and the whole body equal the reference's.
func assertReadsMatchReference(t *testing.T, s *Server, cases []readCase) {
	t.Helper()
	h := s.Handler()
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		status, version, body := referenceRead(s.current(), c.method, c.target, []byte(c.body))
		if rec.Code != status || rec.Header().Get(snapshotHeader) != version ||
			rec.Header().Get("Content-Type") != "application/json" || !bytes.Equal(rec.Body.Bytes(), body) {
			t.Errorf("%s: served %d v%s %q\nreference %d v%s %q", c.name,
				rec.Code, rec.Header().Get(snapshotHeader), rec.Body.Bytes(), status, version, body)
		}
	}
}

// craftSnapshot publishes a copy of s's snapshot with the values only a
// hand-made artifact carries: the edge store's first three edges get a
// probability below 1e-6 (encoding/json's exponent form), a vector of
// zeros and a NaN (which encoding/json refuses), the fourth is left as
// trained; node `bare` loses its communities; node `odd`'s first
// community loses its probability vector and its second keeps only two
// entries. The artifact codec loads all of them, so the read routes can
// serve them.
func craftSnapshot(t *testing.T, s *Server) (edges []graph.Edge, bare, odd graph.NodeID) {
	t.Helper()
	old := s.current()
	st := old.res.Edges
	keys := st.Keys()
	labels := make([]social.Label, len(keys))
	probs := make([]float64, 0, len(keys)*st.Classes())
	for i, k := range keys {
		l, p, _ := st.Lookup(k)
		labels[i], probs = l, append(probs, p...)
	}
	c := st.Classes()
	copy(probs[0:c], []float64{3.5e-7, 0.25, 1 - 0.25 - 3.5e-7})
	copy(probs[c:2*c], []float64{0, 0, 0})
	probs[2*c] = math.NaN()
	for _, k := range keys[:4] {
		edges = append(edges, graph.EdgeFromKey(k))
	}
	res := *old.res
	var err error
	if res.Edges, err = core.NewEdgeStore(keys, labels, probs, c); err != nil {
		t.Fatal(err)
	}
	res.Egos = slices.Clone(old.res.Egos)
	bare, odd = 0, graph.NodeID(len(res.Egos))
	for i, e := range res.Egos {
		if len(e.Comms) >= 2 && graph.NodeID(i) != bare {
			odd = graph.NodeID(i)
			break
		}
	}
	if int(odd) == len(res.Egos) {
		t.Fatal("no ego with two communities")
	}
	res.Egos[bare] = core.NewEgoResult(bare, nil, nil, nil, 0)
	ego := *res.Egos[odd]
	ego.Comms = slices.Clone(ego.Comms)
	c0, c1 := *ego.Comms[0], *ego.Comms[1]
	c0.Probs, c1.Probs = nil, []float64{0.2, 0.8}
	ego.Comms[0], ego.Comms[1] = &c0, &c1
	res.Egos[odd] = &ego
	s.publish(s.newSnapshot(old, old.seed, old.ds, &res, old.pipe, 0))
	return edges, bare, odd
}

// TestReadRoutesMatchReferenceEncoding pins the read routes' wire bytes to
// the reference encoding above: status, X-Snapshot-Version and the whole
// body of GET /v1/edge, POST /v1/classify and GET /v1/communities/{node},
// on a trained snapshot with hand-made values in it and on a cut shard.
func TestReadRoutesMatchReferenceEncoding(t *testing.T) {
	s := testServer(t)
	au, av := absentPair(s)
	edges, bare, odd := craftSnapshot(t, s)
	tiny, zeros, nan, found := edges[0], edges[1], edges[2], edges[3]
	u, v := found.U, found.V
	n := s.current().ds.G.NumNodes()
	edgeURL := func(u, v any) string { return fmt.Sprintf("/v1/edge?u=%v&v=%v", u, v) }
	batch := func(es ...graph.Edge) string {
		parts := make([]string, len(es))
		for i, e := range es {
			parts[i] = fmt.Sprintf(`{"u":%d,"v":%d}`, e.U, e.V)
		}
		return `{"edges":[` + strings.Join(parts, ",") + `]}`
	}
	assertReadsMatchReference(t, s, []readCase{
		{"found edge", "GET", edgeURL(u, v), ""},
		{"found edge, reversed", "GET", edgeURL(v, u), ""},
		{"absent pair", "GET", edgeURL(au, av), ""},
		{"bad node id", "GET", edgeURL("abc", v), ""},
		{"out-of-range node", "GET", edgeURL(u, n+5), ""},
		{"probability below 1e-6", "GET", edgeURL(tiny.U, tiny.V), ""},
		{"vector of zeros", "GET", edgeURL(zeros.U, zeros.V), ""},
		{"NaN probability", "GET", edgeURL(nan.U, nan.V), ""},
		{"classify: out-of-range node and duplicate edge", "POST", "/v1/classify",
			batch(found, graph.Edge{U: 0, V: graph.NodeID(n + 5)}, tiny, zeros, found,
				graph.Edge{U: graph.NodeID(au), V: graph.NodeID(av)})},
		{"classify: NaN probability", "POST", "/v1/classify", batch(found, nan)},
		{"classify: bad body", "POST", "/v1/classify", `{"edges":[{"u":"x"}]}`},
		{"classify: no edges", "POST", "/v1/classify", `{"edges":[]}`},
		{"communities", "GET", fmt.Sprintf("/v1/communities/%d", u), ""},
		{"node with no communities", "GET", fmt.Sprintf("/v1/communities/%d", bare), ""},
		{"communities without a full vector", "GET", fmt.Sprintf("/v1/communities/%d", odd), ""},
		{"communities: out-of-range node", "GET", fmt.Sprintf("/v1/communities/%d", n), ""},
	})

	// A cut shard answers 421 for what the other shard owns.
	const shards = 2
	full, paths := cutTestShards(t, shards)
	shard := shardServer(t, paths[0], 0, shards)
	var mine, theirs graph.Edge
	var theirNode graph.NodeID
	full.current().ds.G.ForEachEdge(func(a, b graph.NodeID) {
		e := graph.Edge{U: a, V: b}
		if shard.current().ownsEdge(a, b) {
			mine = e
		} else {
			theirs = e
		}
		if !shard.current().ownsNode(a) {
			theirNode = a
		}
	})
	assertReadsMatchReference(t, shard, []readCase{
		{"shard: own edge", "GET", edgeURL(mine.U, mine.V), ""},
		{"shard: misdirected edge", "GET", edgeURL(theirs.U, theirs.V), ""},
		{"shard: misdirected classify", "POST", "/v1/classify", batch(mine, theirs)},
		{"shard: misdirected communities", "GET", fmt.Sprintf("/v1/communities/%d", theirNode), ""},
	})
}

// refReceipt is POST /v1/mutations' reply as the handler built it before
// it was typed: a map, keys in encoding/json's sorted order.
func refReceipt(r MutationReceipt) map[string]any {
	if !r.Applied {
		return map[string]any{
			"status":          "accepted",
			"mutations":       r.Mutations,
			"pending":         r.Pending,
			"epoch_submitted": r.Epoch,
		}
	}
	return map[string]any{
		"status":            "applied",
		"epoch":             r.Epoch,
		"snapshot":          r.Snapshot,
		"mutations":         r.Mutations,
		"dirty_nodes":       r.Stats.DirtyNodes,
		"dirty_communities": r.Stats.DirtyCommunities,
		"dirty_edges":       r.Stats.DirtyEdges,
		"dataset_edits":     r.Stats.DatasetEdits,
		"added_edges":       r.Stats.AddedEdges,
		"removed_edges":     r.Stats.RemovedEdges,
		"apply_seconds":     r.Stats.Duration.Seconds(),
		"mutations_pending": r.Pending,
	}
}

// TestMutationReceiptMatchesReferenceEncoding pins the typed receipts'
// bytes to the map form: 202 and 200 replies, an empty delta, zero,
// sub-1e-6 and large durations, and the receipt of a real applied batch.
func TestMutationReceiptMatchesReferenceEncoding(t *testing.T) {
	s := testServer(t)
	au, av := absentPair(s)
	live, err := s.Mutate([]core.Mutation{{Kind: core.MutAdd, U: graph.NodeID(au), V: graph.NodeID(av)}}, true)
	if err != nil {
		t.Fatal(err)
	}
	info := SnapshotInfo{Version: 7, Seed: -3, Epoch: 9, Nodes: 10, Edges: 40, Communities: 12,
		Classifier: "LoCEC-XGB", BuiltAt: "2026-10-19T00:00:00Z", BuildSecs: 1.25e-7, Mutable: true}
	for _, r := range []MutationReceipt{
		live,
		{Mutations: 3, Epoch: 41, Pending: 5},
		{},
		{Applied: true},
		{Applied: true, Mutations: 2, Epoch: 1 << 40, Pending: 1, Snapshot: info, Stats: core.ApplyStats{
			Mutations: 2, AddedEdges: 1, RemovedEdges: 1, DirtyNodes: 4, DirtyCommunities: 9, DirtyEdges: 81,
			DatasetEdits: 0, Duration: 350 * time.Nanosecond}},
		{Applied: true, Mutations: 1, Epoch: 2, Stats: core.ApplyStats{DatasetEdits: 320, Duration: 90 * time.Minute}},
	} {
		got, err := json.Marshal(receiptDoc(r))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(refReceipt(r))
		if !bytes.Equal(got, want) {
			t.Errorf("receipt %+v:\n got %s\nwant %s", r, got, want)
		}
	}
}
