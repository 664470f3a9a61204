package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"time"

	"locec/internal/latency"
	"locec/internal/parallel"
)

// maxBody bounds a router request body, matching the shard limit.
const maxBody = 1 << 20

// Handler returns the router's HTTP routes.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /readyz", r.handleReadyz)
	mux.HandleFunc("GET /v1/edge", r.handleEdge)
	mux.HandleFunc("POST /v1/classify", r.handleClassify)
	mux.HandleFunc("GET /v1/communities/{node}", r.handleCommunities)
	mux.HandleFunc("POST /v1/mutations", r.handleMutations)
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards": r.cfg.Shards})
}

// handleReadyz: the router is ready when at least one shard's circuit is
// not open — it can serve that slice of the keyspace (degraded if others
// are down). A router with every circuit open serves nothing and says so.
func (r *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	open := 0
	for _, st := range r.shards {
		if st.breaker.current() == breakerOpen {
			open++
		}
	}
	status, code := "ready", http.StatusOK
	if open == len(r.shards) {
		w.Header().Set("Retry-After", "1")
		status, code = "not ready", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": status, "open_circuits": open, "shards": r.cfg.Shards})
}

// handleEdge routes GET /v1/edge?u=&v= to the owner of {u,v}.
func (r *Router) handleEdge(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	u, err1 := strconv.ParseUint(q.Get("u"), 10, 32)
	v, err2 := strconv.ParseUint(q.Get("v"), 10, 32)
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, "u and v must be uint32 node ids")
		return
	}
	r.forward(w, req, r.ring.OwnerEdge(uint32(u), uint32(v)), req.URL.RequestURI())
}

// handleCommunities routes GET /v1/communities/{node} to the node's owner.
func (r *Router) handleCommunities(w http.ResponseWriter, req *http.Request) {
	id, err := strconv.ParseUint(req.PathValue("node"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid node id %q", req.PathValue("node"))
		return
	}
	r.forward(w, req, r.ring.OwnerNode(uint32(id)), "/v1/communities/"+req.PathValue("node"))
}

// forward sends a single-key read to the shard that owns it and relays
// the reply verbatim. An unreachable owner is a 503 naming the shard, so
// the caller knows exactly which slice of the keyspace is dark — the
// single-key sibling of a batch's missing_shards.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, owner int, path string) {
	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
	defer cancel()
	resp, err := r.call(ctx, owner, http.MethodGet, path, nil, true)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error(), "missing_shards": []int{owner}})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body)
}

// readBody reads a request body of at most maxBody bytes, answering 400
// or 413 itself when it cannot (ok is false then).
func readBody(w http.ResponseWriter, req *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return nil, false
	}
	if len(body) > maxBody {
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxBody)
		return nil, false
	}
	return body, true
}

// classifyEdge mirrors the serve wire format.
type classifyEdge struct {
	U uint32 `json:"u"`
	V uint32 `json:"v"`
}

// handleClassify scatters a batch to every owning shard and gathers.
// Unreachable shards degrade the response instead of failing it: their
// entries are null, "partial" is true and missing_shards names them —
// reachable results are always returned, never discarded.
func (r *Router) handleClassify(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	var creq struct {
		Edges []classifyEdge `json:"edges"`
	}
	if err := json.Unmarshal(body, &creq); err != nil {
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if len(creq.Edges) == 0 {
		writeError(w, http.StatusBadRequest, "no edges in request")
		return
	}

	// Partition the batch by owning shard, remembering each edge's global
	// position so the gathered response preserves request order.
	byShard := map[int][]int{}
	for i, e := range creq.Edges {
		owner := r.ring.OwnerEdge(e.U, e.V)
		byShard[owner] = append(byShard[owner], i)
	}

	t0 := time.Now()
	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
	defer cancel()
	results := make([]json.RawMessage, len(creq.Edges))
	// One goroutine per owning shard, in ascending shard order. Each fills
	// only its own edges' slots of results and its own slot of failed.
	owners := slices.Sorted(maps.Keys(byShard))
	failed := make([]bool, len(owners))
	parallel.Each(len(owners), func(o int) {
		shard, idxs := owners[o], byShard[owners[o]]
		sub := struct {
			Edges []classifyEdge `json:"edges"`
		}{Edges: make([]classifyEdge, len(idxs))}
		for j, i := range idxs {
			sub.Edges[j] = creq.Edges[i]
		}
		subBody, err := json.Marshal(sub)
		if err == nil {
			var resp *Response
			resp, err = r.call(ctx, shard, http.MethodPost, "/v1/classify", subBody, true)
			if err == nil && resp.Status != http.StatusOK {
				err = fmt.Errorf("shard %d classify returned %d: %s", shard, resp.Status, resp.Body)
			}
			if err == nil {
				var sresp struct {
					Results []json.RawMessage `json:"results"`
				}
				if jerr := json.Unmarshal(resp.Body, &sresp); jerr != nil {
					err = fmt.Errorf("shard %d classify response: %w", shard, jerr)
				} else if len(sresp.Results) != len(idxs) {
					err = fmt.Errorf("shard %d returned %d results for %d edges", shard, len(sresp.Results), len(idxs))
				} else {
					for j, i := range idxs {
						results[i] = sresp.Results[j]
					}
				}
			}
		}
		if err != nil {
			r.log.Warn("classify scatter failed", "shard", shard, "err", err)
			failed[o] = true
		}
	})
	r.sgLat.Observe(time.Since(t0))

	var missing []int
	for o, f := range failed {
		if f {
			missing = append(missing, owners[o])
		}
	}
	doc := map[string]any{
		"results": results,
		"partial": len(missing) > 0,
	}
	if len(missing) > 0 {
		doc["missing_shards"] = missing
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleMutations fans a mutation batch out to only the shards whose
// data it touches — each endpoint's owner gets the mutations naming it —
// and aggregates the per-shard receipts honestly: 200 when every touched
// shard accepted, 207 Multi-Status otherwise, never a fabricated
// success. (An artifact-cut shard serves read-only and answers 409;
// mutations belong on the full trained server. The fan-out exists so a
// future mutable fleet inherits correct routing, and so today's fleet
// refuses loudly instead of dropping writes.)
func (r *Router) handleMutations(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	var mreq struct {
		Mutations []json.RawMessage `json:"mutations"`
		Wait      bool              `json:"wait"`
	}
	if err := json.Unmarshal(body, &mreq); err != nil {
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if len(mreq.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, "no mutations in request")
		return
	}

	// A mutation on edge {u,v} dirties both endpoints' ego networks, so
	// it goes to every distinct owner among them.
	byShard := map[int][]json.RawMessage{}
	for i, raw := range mreq.Mutations {
		var m struct {
			U uint32 `json:"u"`
			V uint32 `json:"v"`
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			writeError(w, http.StatusBadRequest, "mutation %d: %v", i, err)
			return
		}
		ou, ov := r.ring.OwnerNode(m.U), r.ring.OwnerNode(m.V)
		byShard[ou] = append(byShard[ou], raw)
		if ov != ou {
			byShard[ov] = append(byShard[ov], raw)
		}
	}

	type shardReceipt struct {
		Shard     int             `json:"shard"`
		Mutations int             `json:"mutations"`
		Status    int             `json:"status"`
		Response  json.RawMessage `json:"response,omitempty"`
		Error     string          `json:"error,omitempty"`
	}
	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
	defer cancel()
	owners := slices.Sorted(maps.Keys(byShard))
	receipts := make([]shardReceipt, len(owners))
	parallel.Each(len(owners), func(o int) {
		shard, muts := owners[o], byShard[owners[o]]
		rec := shardReceipt{Shard: shard, Mutations: len(muts)}
		sub, err := json.Marshal(map[string]any{"mutations": muts, "wait": mreq.Wait})
		if err == nil {
			var resp *Response
			// Mutations are not idempotent: one attempt, no hedge.
			resp, err = r.call(ctx, shard, http.MethodPost, "/v1/mutations", sub, false)
			if err == nil {
				rec.Status = resp.Status
				rec.Response = json.RawMessage(resp.Body)
			}
		}
		if err != nil {
			rec.Status = http.StatusServiceUnavailable
			rec.Error = err.Error()
		}
		receipts[o] = rec
	})

	status := http.StatusOK
	for _, rec := range receipts {
		if rec.Status < 200 || rec.Status >= 300 {
			status = http.StatusMultiStatus
			break
		}
	}
	writeJSON(w, status, map[string]any{
		"shards":  receipts,
		"partial": status != http.StatusOK,
	})
}

// handleStats reports per-shard health, retry/hedge/breaker counters and
// scatter-gather latency — the router's whole observable state.
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	shards := make([]map[string]any, len(r.shards))
	for i, st := range r.shards {
		doc := map[string]any{
			"shard":              i,
			"breaker":            st.breaker.current().String(),
			"probe_ok":           st.probeOK.Load(),
			"requests":           st.requests.Load(),
			"failures":           st.failures.Load(),
			"retries":            st.retries.Load(),
			"hedges":             st.hedges.Load(),
			"hedge_wins":         st.hedgeWins.Load(),
			"breaker_fast_fails": st.breakerFastFails.Load(),
		}
		if st.lat.Count() > 0 {
			doc["latency_ms"] = quantilesMS(st.lat)
		}
		shards[i] = doc
	}
	doc := map[string]any{
		"shards":         shards,
		"shard_count":    r.cfg.Shards,
		"uptime_seconds": time.Since(r.start).Seconds(),
	}
	if r.sgLat.Count() > 0 {
		doc["scatter_gather_ms"] = quantilesMS(r.sgLat)
	}
	writeJSON(w, http.StatusOK, doc)
}

// quantilesMS is a histogram's p50/p95/p99 in milliseconds.
func quantilesMS(h *latency.Histogram) map[string]float64 {
	return map[string]float64{"p50": h.Quantile(0.50) / 1e6, "p95": h.Quantile(0.95) / 1e6, "p99": h.Quantile(0.99) / 1e6}
}
