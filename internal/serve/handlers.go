package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/query"
	"locec/internal/social"
)

// maxClassifyBody bounds every request body readBody reads: classify,
// mutations and reload (1 MiB ≈ 40k classify edges).
const maxClassifyBody = 1 << 20

// snapshotHeader carries the version of the snapshot that answered a
// request; the logging middleware reads it back so access logs record the
// snapshot the handler actually used, not whatever is newest.
const snapshotHeader = "X-Snapshot-Version"

// markSnapshot stamps the response with the serving snapshot's version,
// the header value formatted once when the snapshot was published.
func markSnapshot(w http.ResponseWriter, snap *snapshot) {
	w.Header()[snapshotHeader] = snap.versionHeader
}

// jsonContentType is every JSON response's Content-Type value, shared: the
// server only reads it, and a length-1 slice is copied, not overwritten, by
// an append.
var jsonContentType = []string{"application/json"}

// Handler returns the service's HTTP routes wrapped in logging middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/edge", s.handleEdge)
	mux.HandleFunc("POST /v1/classify", s.handleClassify)
	mux.HandleFunc("GET /v1/communities/{node}", s.handleCommunities)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/artifact", s.handleArtifact)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	mux.HandleFunc("POST /v1/mutations", s.handleMutations)
	return s.withLogging(s.log, mux)
}

// edgeResult is one classified friendship in a response.
type edgeResult struct {
	U     uint32   `json:"u"`
	V     uint32   `json:"v"`
	Found bool     `json:"found"`
	Label string   `json:"label,omitempty"`
	Probs probsDoc `json:"probabilities,omitzero"`
}

// probsDoc names the class probability vector's entries. It is a value
// inside its document, so a response carries no heap object per vector.
type probsDoc struct {
	Colleague  float64 `json:"colleague"`
	Family     float64 `json:"family"`
	Schoolmate float64 `json:"schoolmate"`
	// present tells a vector of three zeros, which is encoded, from no
	// vector, the zero value, which omitzero drops.
	present bool
}

// newProbsDoc names p's entries; p shorter than the label set gives the
// zero value, no vector.
func newProbsDoc(p []float64) probsDoc {
	if len(p) < int(social.NumLabels) {
		return probsDoc{}
	}
	return probsDoc{
		Colleague:  p[social.Colleague],
		Family:     p[social.Family],
		Schoolmate: p[social.Schoolmate],
		present:    true,
	}
}

func (s *snapshot) edgeResult(u, v graph.NodeID) edgeResult {
	out := edgeResult{U: uint32(u), V: uint32(v)}
	label, probs, ok := s.label(u, v)
	if !ok {
		return out
	}
	out.Found = true
	out.Label = label.String()
	out.Probs = newProbsDoc(probs)
	return out
}

// writeJSON answers with v marshalled once and written once, ending in a
// newline. A value encoding/json refuses (a NaN) leaves the body empty
// after the status line, as json.Encoder did.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, _ := marshalLine(v)
	writeBody(w, status, body)
}

// marshalLine is v's JSON encoding followed by a newline.
func marshalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeBody sends an encoded JSON body in one write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if len(body) > 0 {
		_, _ = w.Write(body)
	}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeMisdirected answers a request for data another shard owns with
// 421 Misdirected Request, naming the owner. A sharded server fails loud
// on misrouted traffic instead of returning "not found" — the latter
// would let a misconfigured router read partial data as authoritative.
func writeMisdirected(w http.ResponseWriter, snap *snapshot, owner int, what string) {
	writeJSON(w, http.StatusMisdirectedRequest, map[string]any{
		"error": fmt.Sprintf("%s is owned by shard %d; this is shard %d/%d",
			what, owner, snap.shardIndex, snap.shardCount),
		"owner_shard": owner,
		"shard":       fmt.Sprintf("%d/%d", snap.shardIndex, snap.shardCount),
	})
}

// parseNode parses a node ID and range-checks it against the snapshot.
func (s *snapshot) parseNode(raw string) (graph.NodeID, error) {
	id, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("invalid node id %q", raw)
	}
	if int(id) >= s.ds.G.NumNodes() {
		return 0, fmt.Errorf("node %d out of range (snapshot has %d nodes)", id, s.ds.G.NumNodes())
	}
	return graph.NodeID(id), nil
}

// handleHealthz reports pure liveness: the process is up and answering.
// It says nothing about whether a snapshot is loaded — that is /readyz —
// so an orchestrator's restart probe never kills a server that is merely
// still booting.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.current()
	markSnapshot(w, snap)
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"version": snap.version,
	})
}

// handleReadyz reports readiness: 200 once the snapshot is loaded and WAL
// replay has completed, 503 otherwise. Routers probe this — never
// /healthz — so traffic is withheld from a booting or closing shard that
// is nonetheless alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	snap := s.current()
	markSnapshot(w, snap)
	if !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "not ready",
		})
		return
	}
	doc := map[string]any{
		"status":  "ready",
		"version": snap.version,
	}
	if shard := snap.info().Shard; shard != "" {
		doc["shard"] = shard
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleEdge answers GET /v1/edge?u=&v= with the single edge's prediction.
func (s *Server) handleEdge(w http.ResponseWriter, r *http.Request) {
	snap := s.current()
	markSnapshot(w, snap)
	u, err := snap.parseNode(query.Get(r.URL.RawQuery, "u"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "u: %v", err)
		return
	}
	v, err := snap.parseNode(query.Get(r.URL.RawQuery, "v"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "v: %v", err)
		return
	}
	if !snap.ownsEdge(u, v) {
		writeMisdirected(w, snap, snap.ring.OwnerEdge(uint32(u), uint32(v)),
			fmt.Sprintf("edge {%d,%d}", u, v))
		return
	}
	res := snap.edgeResult(u, v)
	if !res.Found {
		writeError(w, http.StatusNotFound, "no friendship {%d,%d}", u, v)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// classifyRequest is the POST /v1/classify body.
type classifyRequest struct {
	Edges []edgeQuery `json:"edges"`
}

// edgeQuery is one edge of a classify request.
type edgeQuery struct {
	U uint32 `json:"u"`
	V uint32 `json:"v"`
}

// classifyDoc is the POST /v1/classify response; fields in the order a
// map of the same keys marshalled in.
type classifyDoc struct {
	Results []edgeResult `json:"results"`
	Version int64        `json:"version"`
}

// X-Cache header values, shared like jsonContentType.
var (
	cacheHit  = []string{"hit"}
	cacheMiss = []string{"miss"}
)

// maxSizedBody caps the buffer readBody allocates on a declared
// Content-Length before any byte arrives: a client that declares a
// megabyte and sends nothing pins no more than this per connection.
const maxSizedBody = 64 << 10

// readBody reads a request body of at most maxClassifyBody bytes, into a
// buffer sized once by a declared Content-Length up to maxSizedBody,
// answering 400 or 413 itself when it cannot (ok is false then).
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	var err error
	if n := r.ContentLength; n >= 0 && n <= maxSizedBody {
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(io.LimitReader(r.Body, maxClassifyBody+1))
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return nil, false
	}
	if len(body) > maxClassifyBody {
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxClassifyBody)
		return nil, false
	}
	return body, true
}

// handleClassify answers a batch of edge lookups, memoized per snapshot in
// the LRU cache (key: snapshot version + body hash).
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	snap := s.current()
	markSnapshot(w, snap)
	sum := sha256.Sum256(body)
	// The key "version:hex(sha256(body))" is built in one allocation.
	var kb [20 + 1 + 2*sha256.Size]byte
	prefix := append(append(kb[:0], snap.versionHeader[0]...), ':')
	key := string(hex.AppendEncode(prefix, sum[:]))
	if cached, ok := s.cache.get(key); ok {
		w.Header()["X-Cache"] = cacheHit
		writeBody(w, http.StatusOK, cached)
		return
	}
	// One object per edge: sizing Edges by the body's '{' count spares the
	// decoder its doublings; a count too high only over-sizes the slice.
	req := classifyRequest{Edges: make([]edgeQuery, 0, bytes.Count(body, []byte{'{'}))}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if len(req.Edges) == 0 {
		writeError(w, http.StatusBadRequest, "no edges in request")
		return
	}
	ctx := r.Context()
	results := make([]edgeResult, len(req.Edges))
	for i, e := range req.Edges {
		// A disconnected client stops burning CPU mid-batch: check the
		// request context between chunks (cheap enough at every-256 to be
		// invisible on the happy path). Nothing is cached and nothing is
		// written — the client is gone.
		if i%256 == 0 && ctx.Err() != nil {
			return
		}
		u, v := graph.NodeID(e.U), graph.NodeID(e.V)
		if int(e.U) >= snap.ds.G.NumNodes() || int(e.V) >= snap.ds.G.NumNodes() {
			results[i] = edgeResult{U: e.U, V: e.V}
			continue
		}
		if !snap.ownsEdge(u, v) {
			// One misrouted edge fails the whole batch: the router shards
			// batches by ownership, so a stray edge means ring disagreement
			// — data this shard cannot answer for, loudly.
			writeMisdirected(w, snap, snap.ring.OwnerEdge(uint32(u), uint32(v)),
				fmt.Sprintf("edge {%d,%d}", u, v))
			return
		}
		results[i] = snap.edgeResult(u, v)
	}
	resp, err := marshalLine(&classifyDoc{Results: results, Version: snap.version})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	s.cache.put(key, resp)
	w.Header()["X-Cache"] = cacheMiss
	writeBody(w, http.StatusOK, resp)
}

// communityDoc is one local community in a /v1/communities response. A
// community without a probability vector encodes "probabilities": null.
type communityDoc struct {
	Members   []graph.NodeID `json:"members"`
	Tightness []float64      `json:"tightness"`
	Label     string         `json:"label"`
	Probs     *probsDoc      `json:"probabilities"`
}

// communitiesDoc is the /v1/communities response; fields in the order a
// map of the same keys marshalled in.
type communitiesDoc struct {
	Communities []communityDoc `json:"communities"`
	Node        graph.NodeID   `json:"node"`
	Version     int64          `json:"version"`
}

// handleCommunities returns the local communities of a node's ego network
// with their Phase II classification.
func (s *Server) handleCommunities(w http.ResponseWriter, r *http.Request) {
	snap := s.current()
	markSnapshot(w, snap)
	node, err := snap.parseNode(r.PathValue("node"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !snap.ownsNode(node) {
		writeMisdirected(w, snap, snap.ring.OwnerNode(uint32(node)),
			fmt.Sprintf("node %d", node))
		return
	}
	ego := snap.res.Egos[node]
	comms := make([]communityDoc, len(ego.Comms))
	probs := make([]probsDoc, len(ego.Comms)) // every community's vector, one slab
	for i, c := range ego.Comms {
		comms[i] = communityDoc{
			Members:   c.Members,
			Tightness: c.Tightness,
			Label:     social.Label(core.Argmax(c.Probs)).String(),
		}
		if probs[i] = newProbsDoc(c.Probs); probs[i].present {
			comms[i].Probs = &probs[i]
		}
	}
	writeJSON(w, http.StatusOK, &communitiesDoc{Communities: comms, Node: node, Version: snap.version})
}

// handleStats reports the live snapshot, phase timings, per-route request
// latency percentiles, cache counters, mutation counters and process
// uptime.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.current()
	markSnapshot(w, snap)
	hits, misses, size := s.cache.stats()
	phases := make(map[string]float64, 4)
	for name, d := range snap.res.Times.Map() {
		phases[name] = d.Seconds()
	}
	doc := map[string]any{
		"snapshot":       snap.info(),
		"reloads":        s.reloads.Load(),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"phase_seconds":  phases,
		"latency_ms":     s.latencyDocs(),
		"cache": map[string]any{
			"hits":   hits,
			"misses": misses,
			"size":   size,
		},
		"mutations": map[string]any{
			"applied":            s.mutApplied.Load(),
			"pending":            s.mutPending.Load(),
			"failed":             s.mutFailed.Load(),
			"last_epoch":         s.epochs.Load(),
			"last_dirty_nodes":   s.lastDirtyNodes.Load(),
			"last_dirty_edges":   s.lastDirtyEdges.Load(),
			"last_dataset_edits": s.lastDatasetEdits.Load(),
			"last_apply_seconds": float64(s.lastApplyNs.Load()) / 1e9,
		},
	}
	if ws, ok := s.WALStats(); ok {
		doc["wal"] = ws
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleArtifact serves the live snapshot as a versioned artifact file —
// train on this server, `curl -o model.locec`, cold-start another one.
// The bytes are memoized on the (immutable) snapshot and fully encoded
// before any header is written, so concurrent downloads share one encode
// and an export failure is a clean 500, never a 200 with a partial body.
// Grabbing the snapshot once also keeps the version header, filename and
// body describing the same snapshot across a concurrent reload.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	snap := s.current()
	data, err := snap.artifactBytes()
	if err != nil {
		s.log.Error("artifact export failed", "err", err)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	markSnapshot(w, snap)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("snapshot-v%d.locec", snap.version)))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// mutationDoc is one operation in a POST /v1/mutations body.
type mutationDoc struct {
	// Op is "add", "remove" or "relabel".
	Op string `json:"op"`
	U  uint32 `json:"u"`
	V  uint32 `json:"v"`
	// Label is the edge's ground truth for add/relabel: "colleague",
	// "family", "schoolmate" or "other" (add defaults to "other").
	Label string `json:"label,omitempty"`
	// Revealed marks the label visible to learners; defaults to false for
	// add and true for relabel (setting a label usually means surveying it).
	Revealed *bool `json:"revealed,omitempty"`
	// Interactions optionally carries the 8 per-dimension interaction
	// counts of an added edge.
	Interactions []float64 `json:"interactions,omitempty"`
}

// mutationsRequest is the POST /v1/mutations body.
type mutationsRequest struct {
	Mutations []mutationDoc `json:"mutations"`
	// Wait blocks the request until the batch's epoch is published and
	// reports the apply statistics; the default enqueues and returns 202.
	Wait bool `json:"wait"`
}

// parseMutationLabel maps a wire label to the data model.
func parseMutationLabel(raw string) (social.Label, error) {
	switch raw {
	case "colleague":
		return social.Colleague, nil
	case "family":
		return social.Family, nil
	case "schoolmate":
		return social.Schoolmate, nil
	case "other":
		return social.Other, nil
	default:
		return social.Unlabeled, fmt.Errorf("unknown label %q (want colleague, family, schoolmate or other)", raw)
	}
}

// toMutation validates one wire operation against the current snapshot's
// node range and converts it. Edge-existence checks stay with the applier
// (the graph may have changed by the time the batch is applied).
func (s *snapshot) toMutation(i int, doc mutationDoc) (core.Mutation, error) {
	m := core.Mutation{U: graph.NodeID(doc.U), V: graph.NodeID(doc.V)}
	n := s.ds.G.NumNodes()
	if doc.U == doc.V {
		return m, fmt.Errorf("mutation %d: self-loop on node %d", i, doc.U)
	}
	if int(doc.U) >= n || int(doc.V) >= n {
		return m, fmt.Errorf("mutation %d: edge {%d,%d} out of range (snapshot has %d nodes)", i, doc.U, doc.V, n)
	}
	switch doc.Op {
	case "add":
		m.Kind = core.MutAdd
		m.Label = social.Other
		if doc.Label != "" {
			l, err := parseMutationLabel(doc.Label)
			if err != nil {
				return m, fmt.Errorf("mutation %d: %v", i, err)
			}
			m.Label = l
		}
		if doc.Revealed != nil {
			m.Revealed = *doc.Revealed
		}
		if err := core.CheckInteractions(doc.Interactions); err != nil {
			return m, fmt.Errorf("mutation %d: add {%d,%d}: %v", i, doc.U, doc.V, err)
		}
		m.Interactions = doc.Interactions
	case "remove":
		m.Kind = core.MutRemove
	case "relabel":
		m.Kind = core.MutRelabel
		if doc.Label == "" {
			return m, fmt.Errorf("mutation %d: relabel requires a label", i)
		}
		l, err := parseMutationLabel(doc.Label)
		if err != nil {
			return m, fmt.Errorf("mutation %d: %v", i, err)
		}
		m.Label = l
		m.Revealed = true
		if doc.Revealed != nil {
			m.Revealed = *doc.Revealed
		}
	default:
		return m, fmt.Errorf("mutation %d: unknown op %q (want add, remove or relabel)", i, doc.Op)
	}
	return m, nil
}

// handleMutations accepts a batch of graph mutations (add/remove/relabel)
// for the background applier, which recomputes only the dirty neighborhood
// against the frozen models and atomically publishes the new snapshot.
// With "wait":true the response describes the applied epoch; otherwise the
// batch is acknowledged with 202 and an epoch token to poll against.
func (s *Server) handleMutations(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req mutationsRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if len(req.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, "no mutations in request")
		return
	}
	snap := s.current()
	if snap.pipe == nil {
		markSnapshot(w, snap)
		writeError(w, http.StatusConflict, "%v", snap.immutable())
		return
	}
	batch := make([]core.Mutation, len(req.Mutations))
	for i, doc := range req.Mutations {
		m, err := snap.toMutation(i, doc)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		batch[i] = m
	}
	receipt, err := s.Mutate(batch, req.Wait)
	switch {
	case errors.Is(err, errQueueFull), errors.Is(err, errServerClosed):
		// Transient back-pressure, not a semantic conflict: retryable.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		// The batch was structurally valid but the applier rejected it
		// (e.g. add of an edge that already exists).
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	status := http.StatusAccepted
	if receipt.Applied {
		status = http.StatusOK
		w.Header().Set(snapshotHeader, strconv.FormatInt(receipt.Snapshot.Version, 10))
	}
	writeJSON(w, status, receiptDoc(receipt))
}

// acceptedDoc is the 202 reply to POST /v1/mutations; fields in the order
// a map of the same keys marshalled in.
type acceptedDoc struct {
	EpochSubmitted int64  `json:"epoch_submitted"`
	Mutations      int    `json:"mutations"`
	Pending        int64  `json:"pending"`
	Status         string `json:"status"`
}

// appliedDoc is the 200 reply to a wait:true POST /v1/mutations; fields in
// the order a map of the same keys marshalled in.
type appliedDoc struct {
	AddedEdges       int          `json:"added_edges"`
	ApplySeconds     float64      `json:"apply_seconds"`
	DatasetEdits     int          `json:"dataset_edits"`
	DirtyCommunities int          `json:"dirty_communities"`
	DirtyEdges       int          `json:"dirty_edges"`
	DirtyNodes       int          `json:"dirty_nodes"`
	Epoch            int64        `json:"epoch"`
	Mutations        int          `json:"mutations"`
	MutationsPending int64        `json:"mutations_pending"`
	RemovedEdges     int          `json:"removed_edges"`
	Snapshot         SnapshotInfo `json:"snapshot"`
	Status           string       `json:"status"`
}

// receiptDoc is r's reply document: appliedDoc once applied, else
// acceptedDoc.
func receiptDoc(r MutationReceipt) any {
	if !r.Applied {
		return acceptedDoc{EpochSubmitted: r.Epoch, Mutations: r.Mutations, Pending: r.Pending, Status: "accepted"}
	}
	st := r.Stats
	return appliedDoc{
		AddedEdges: st.AddedEdges, ApplySeconds: st.Duration.Seconds(), DatasetEdits: st.DatasetEdits,
		DirtyCommunities: st.DirtyCommunities, DirtyEdges: st.DirtyEdges, DirtyNodes: st.DirtyNodes,
		Epoch: r.Epoch, Mutations: r.Mutations, MutationsPending: r.Pending,
		RemovedEdges: st.RemovedEdges, Snapshot: r.Snapshot, Status: "applied",
	}
}

// reloadRequest is the POST /v1/reload body.
type reloadRequest struct {
	// Artifact is the server-local path of the artifact to swap in (see
	// docs/OPERATIONS.md).
	Artifact string `json:"artifact"`
}

// handleReload restores the artifact the body names and publishes it.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req reloadRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "decode: %v", err)
			return
		}
	}
	if req.Artifact == "" {
		writeError(w, http.StatusBadRequest, `body needs "artifact": the server-local path of a .locec file`)
		return
	}
	info, err := s.ReloadArtifact(req.Artifact)
	switch {
	case errors.Is(err, errImmutable):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set(snapshotHeader, strconv.FormatInt(info.Version, 10))
	writeJSON(w, http.StatusOK, info)
}
