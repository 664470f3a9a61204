package serve

import (
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
	"locec/internal/social"
)

// maxClassifyBody bounds a /v1/classify request body (1 MiB ≈ 40k edges).
const maxClassifyBody = 1 << 20

// snapshotHeader carries the version of the snapshot that answered a
// request; the logging middleware reads it back so access logs record the
// snapshot the handler actually used, not whatever is newest.
const snapshotHeader = "X-Snapshot-Version"

// markSnapshot stamps the response with the serving snapshot's version.
func markSnapshot(w http.ResponseWriter, snap *snapshot) {
	w.Header().Set(snapshotHeader, strconv.FormatInt(snap.version, 10))
}

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
	U     uint32    `json:"u"`
	V     uint32    `json:"v"`
	Found bool      `json:"found"`
	Label string    `json:"label,omitempty"`
	Probs *probsDoc `json:"probabilities,omitempty"`
}

// probsDoc names the class probability vector's entries.
type probsDoc struct {
	Colleague  float64 `json:"colleague"`
	Family     float64 `json:"family"`
	Schoolmate float64 `json:"schoolmate"`
}

func newProbsDoc(p []float64) *probsDoc {
	if len(p) < int(social.NumLabels) {
		return nil
	}
	return &probsDoc{
		Colleague:  p[social.Colleague],
		Family:     p[social.Family],
		Schoolmate: p[social.Schoolmate],
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
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
	u, err := snap.parseNode(r.URL.Query().Get("u"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "u: %v", err)
		return
	}
	v, err := snap.parseNode(r.URL.Query().Get("v"))
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
	Edges []struct {
		U uint32 `json:"u"`
		V uint32 `json:"v"`
	} `json:"edges"`
}

// handleClassify answers a batch of edge lookups, memoized per snapshot in
// the LRU cache (key: snapshot version + body hash).
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxClassifyBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxClassifyBody {
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxClassifyBody)
		return
	}
	snap := s.current()
	markSnapshot(w, snap)
	sum := sha256.Sum256(body)
	key := strconv.FormatInt(snap.version, 10) + ":" + hex.EncodeToString(sum[:])
	if cached, ok := s.cache.get(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(cached)
		return
	}
	var req classifyRequest
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
	resp, err := json.Marshal(map[string]any{
		"version": snap.version,
		"results": results,
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	resp = append(resp, '\n')
	s.cache.put(key, resp)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "miss")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(resp)
}

// communityDoc is one local community in a /v1/communities response.
type communityDoc struct {
	Members   []uint32  `json:"members"`
	Tightness []float64 `json:"tightness"`
	Label     string    `json:"label"`
	Probs     *probsDoc `json:"probabilities"`
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
	for i, c := range ego.Comms {
		members := make([]uint32, len(c.Members))
		for j, m := range c.Members {
			members[j] = uint32(m)
		}
		comms[i] = communityDoc{
			Members:   members,
			Tightness: c.Tightness,
			Label:     social.Label(core.Argmax(c.Probs)).String(),
			Probs:     newProbsDoc(c.Probs),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"node":        node,
		"version":     snap.version,
		"communities": comms,
	})
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
			"folds":              s.mutFolds.Load(),
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
	body, err := io.ReadAll(io.LimitReader(r.Body, maxClassifyBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxClassifyBody {
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxClassifyBody)
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
		writeError(w, http.StatusConflict,
			"snapshot %d was loaded from an artifact and carries no raw dataset; mutations need a trained snapshot (POST /v1/reload with a seed first)",
			snap.version)
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
	if !receipt.Applied {
		writeJSON(w, http.StatusAccepted, map[string]any{
			"status":          "accepted",
			"mutations":       receipt.Mutations,
			"pending":         receipt.Pending,
			"epoch_submitted": receipt.Epoch,
		})
		return
	}
	w.Header().Set(snapshotHeader, strconv.FormatInt(receipt.Snapshot.Version, 10))
	writeJSON(w, http.StatusOK, map[string]any{
		"status":            "applied",
		"epoch":             receipt.Epoch,
		"snapshot":          receipt.Snapshot,
		"mutations":         receipt.Mutations,
		"dirty_nodes":       receipt.Stats.DirtyNodes,
		"dirty_communities": receipt.Stats.DirtyCommunities,
		"dirty_edges":       receipt.Stats.DirtyEdges,
		"dataset_edits":     receipt.Stats.DatasetEdits,
		"folded":            receipt.Stats.Folded,
		"added_edges":       receipt.Stats.AddedEdges,
		"removed_edges":     receipt.Stats.RemovedEdges,
		"apply_seconds":     receipt.Stats.Duration.Seconds(),
		"mutations_pending": receipt.Pending,
	})
}

// reloadRequest is the optional POST /v1/reload body.
type reloadRequest struct {
	// Seed retrains on a fresh dataset for this seed.
	Seed *int64 `json:"seed"`
	// Artifact swaps in a pre-trained snapshot from this server-local
	// file path instead of retraining (see docs/OPERATIONS.md).
	Artifact string `json:"artifact"`
}

// handleReload builds and publishes a fresh snapshot: from an artifact
// file when the body names one (no training), else by retraining on the
// requested seed. With no body (or no seed), the next seed is the current
// one plus one so repeated reloads keep producing new datasets.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if r.Body != nil {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if err != nil {
			writeError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				writeError(w, http.StatusBadRequest, "decode: %v", err)
				return
			}
		}
	}
	if req.Artifact != "" && req.Seed != nil {
		writeError(w, http.StatusBadRequest, "request both retrains (seed) and loads an artifact; pick one")
		return
	}
	var info SnapshotInfo
	var err error
	switch {
	case req.Artifact != "":
		info, err = s.ReloadArtifact(req.Artifact)
	case req.Seed != nil:
		info, err = s.Reload(*req.Seed)
	default:
		info, err = s.ReloadNext()
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set(snapshotHeader, strconv.FormatInt(info.Version, 10))
	writeJSON(w, http.StatusOK, info)
}
