package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"locec/internal/latency"
	"locec/internal/parallel"
	"locec/internal/query"
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
	mux.HandleFunc("POST /v1/mutations", refuseMutations)
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	return mux
}

// jsonContentType is every JSON reply's Content-Type, shared: read only.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// The router's own documents. Fields are declared in name order, the
// order of their keys on the wire (TestRouterWireDocs pins the bytes).
type (
	healthzDoc struct {
		Shards int    `json:"shards"`
		Status string `json:"status"`
	}
	readyzDoc struct {
		OpenCircuits int    `json:"open_circuits"`
		Shards       int    `json:"shards"`
		Status       string `json:"status"`
	}
	// unavailableDoc is the 503 of a single-key read whose owner is dark.
	unavailableDoc struct {
		Error         string `json:"error"`
		MissingShards []int  `json:"missing_shards"`
	}
)

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, healthzDoc{Shards: r.cfg.Shards, Status: "ok"})
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
	writeJSON(w, code, readyzDoc{OpenCircuits: open, Shards: r.cfg.Shards, Status: status})
}

// handleEdge routes GET /v1/edge?u=&v= to the owner of {u,v}.
func (r *Router) handleEdge(w http.ResponseWriter, req *http.Request) {
	u, err1 := strconv.ParseUint(query.Get(req.URL.RawQuery, "u"), 10, 32)
	v, err2 := strconv.ParseUint(query.Get(req.URL.RawQuery, "v"), 10, 32)
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, "u and v must be uint32 node ids")
		return
	}
	r.forward(w, req, r.ring.OwnerEdge(uint32(u), uint32(v)), "/v1/edge?"+req.URL.RawQuery)
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
	resp, err := r.call(ctx, owner, http.MethodGet, path, nil)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, unavailableDoc{Error: err.Error(), MissingShards: []int{owner}})
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body)
}

// maxSizedBody caps the buffer readBody allocates on a declared
// Content-Length before any byte arrives, as the shards cap theirs.
const maxSizedBody = 64 << 10

// readBody reads a request body of at most maxBody bytes, into a buffer
// sized once by a declared Content-Length up to maxSizedBody, answering
// 400 or 413 itself when it cannot (ok is false then).
func readBody(w http.ResponseWriter, req *http.Request) (body []byte, ok bool) {
	var err error
	if n := req.ContentLength; n >= 0 && n <= maxSizedBody {
		body = make([]byte, n)
		_, err = io.ReadFull(req.Body, body)
	} else {
		body, err = io.ReadAll(io.LimitReader(req.Body, maxBody+1))
	}
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
// entries are null, "partial" is true and missing_shards names them. No
// shard reply is decoded: each result is relayed as the shard wrote it.
func (r *Router) handleClassify(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	// One object per edge: sizing Edges by the body's '{' count spares the
	// decoder its doublings.
	creq := struct {
		Edges []classifyEdge `json:"edges"`
	}{Edges: make([]classifyEdge, 0, bytes.Count(body, []byte{'{'}))}
	if err := json.Unmarshal(body, &creq); err != nil {
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	edges := creq.Edges
	if len(edges) == 0 {
		writeError(w, http.StatusBadRequest, "no edges in request")
		return
	}

	// Group the batch by owning shard, a counting sort: order lists the
	// request positions shard by shard, shard s's at start[s]:start[s+1],
	// and pos[i] is position i's place in order.
	n, shards := len(edges), r.cfg.Shards
	idx := make([]int, 2*n+2*shards+1)
	order, pos, start := idx[:n], idx[n:2*n], idx[2*n:2*n+shards+1]
	owners := idx[2*n+shards+1:][:0] // the shards owning any edge, ascending
	for i, e := range edges {
		pos[i] = r.ring.OwnerEdge(e.U, e.V)
		start[pos[i]+1]++
	}
	for s := range shards {
		if start[s+1] > 0 {
			owners = append(owners, s)
		}
		start[s+1] += start[s]
	}
	for i, s := range pos {
		order[start[s]], pos[i] = i, start[s]
		start[s]++
	}
	copy(start[1:], start[:shards]) // each start[s] ran to shard s's end
	start[0] = 0

	t0 := time.Now()
	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
	defer cancel()
	// One goroutine per owning shard, in ascending shard order. Each fills
	// only its own span of results, which stays nil if the shard failed.
	results := make([][]byte, n)
	parallel.Each(len(owners), func(o int) {
		shard := owners[o]
		lo, hi := start[shard], start[shard+1]
		if err := r.classifyShard(ctx, shard, edges, order[lo:hi], results[lo:lo:hi]); err != nil {
			r.cfg.Logger.Warn("classify scatter failed", "shard", shard, "err", err)
			clear(results[lo:hi])
		}
	})
	r.sgLat.Observe(time.Since(t0))

	var missing []byte
	for _, s := range owners {
		if results[start[s]] == nil {
			missing = strconv.AppendInt(append(missing, ','), int64(s), 10)
		}
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if missing != nil {
		missing[0] = '['
		_, _ = w.Write(missingKey)
		_, _ = w.Write(missing)
		_, _ = w.Write(partialTrue)
	} else {
		_, _ = w.Write(partialFalse)
	}
	for i, p := range pos {
		if i > 0 {
			_, _ = w.Write(comma)
		}
		if res := results[p]; res != nil {
			_, _ = w.Write(res)
		} else {
			_, _ = w.Write(null)
		}
	}
	_, _ = w.Write(resultsEnd)
}

// The pieces of a gathered classify reply, {"missing_shards":[…],
// "partial":…,"results":[…]} and a newline: the keys in the order a map
// encoded them, missing_shards only when a shard is dark.
var (
	missingKey   = []byte(`{"missing_shards":`)
	partialTrue  = []byte(`],"partial":true,"results":[`)
	partialFalse = []byte(`{"partial":false,"results":[`)
	comma        = []byte(",")
	null         = []byte("null")
	resultsEnd   = []byte("]}\n")
)

// classifyShard sends a shard the edges at positions idxs and appends to
// dst a view of each result in its reply.
func (r *Router) classifyShard(ctx context.Context, shard int, edges []classifyEdge, idxs []int, dst [][]byte) error {
	resp, err := r.call(ctx, shard, http.MethodPost, "/v1/classify", appendSubBatch(edges, idxs))
	if err != nil {
		return err
	}
	if resp.Status != http.StatusOK {
		return fmt.Errorf("shard %d classify returned %d: %s", shard, resp.Status, resp.Body)
	}
	got, err := appendResults(dst, resp.Body)
	if err != nil {
		return fmt.Errorf("shard %d classify response: %w", shard, err)
	}
	if len(got) != len(idxs) {
		return fmt.Errorf("shard %d returned %d results for %d edges", shard, len(got), len(idxs))
	}
	return nil
}

// appendSubBatch writes a shard's share of a batch, {"edges":[{"u":…,
// "v":…},…]}, byte for byte what json.Marshal writes for it: a shard's
// response cache is keyed by the body's hash.
func appendSubBatch(edges []classifyEdge, idxs []int) []byte {
	const perEdge = len(`{"u":4294967295,"v":4294967295},`)
	b := append(make([]byte, 0, len(`{"edges":[]}`)+perEdge*len(idxs)), `{"edges":[`...)
	for j, i := range idxs {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(append(b, `{"u":`...), uint64(edges[i].U), 10)
		b = strconv.AppendUint(append(b, `,"v":`...), uint64(edges[i].V), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// appendResults appends to dst a view of each element, trimmed of blanks,
// of the top-level "results" array of a classify reply; nothing is
// copied. body must be valid JSON (checked here), an object with exactly
// one member "results" holding an array. A member name json.Unmarshal
// would also match to "results" (another case, an escape, a non-ASCII
// fold) is an error, so the elements are always the ones it would find.
func appendResults(dst [][]byte, body []byte) ([][]byte, error) {
	if !json.Valid(body) {
		return dst, errors.New("invalid JSON")
	}
	i := skipBlank(body, 0)
	if body[i] != '{' {
		return dst, errors.New("not an object")
	}
	found := false
	for i = skipBlank(body, i+1); body[i] != '}'; i = skipBlank(body, i+1) {
		end := skipValue(body, i)
		name := body[i+1 : end-1]
		i = skipBlank(body, skipBlank(body, end)+1) // past the colon
		switch {
		case string(name) == "results":
			if found || body[i] != '[' {
				return dst, errors.New(`"results" repeated or not an array`)
			}
			found = true
			for i = skipBlank(body, i+1); body[i] != ']'; i = skipBlank(body, i+1) {
				end := skipValue(body, i)
				dst = append(dst, body[i:end])
				if i = skipBlank(body, end); body[i] == ']' {
					break
				}
			}
			i++
		case bytes.ContainsFunc(name, func(r rune) bool { return r == '\\' || r >= utf8.RuneSelf }) ||
			asciiEqualFold(name, "results"):
			return dst, fmt.Errorf("member %q may name \"results\"", name)
		default:
			i = skipValue(body, i)
		}
		if i = skipBlank(body, i); body[i] == '}' {
			break
		}
	}
	if !found {
		return dst, errors.New(`no "results"`)
	}
	return dst, nil
}

// endsLiteral reports whether c can follow a number or literal in JSON.
func endsLiteral(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', ',', ']', '}':
		return true
	}
	return false
}

// skipBlank returns the index of the first non-blank byte of b from i.
func skipBlank(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipValue returns the index just past the JSON value that starts at
// b[i], b being valid JSON: strings run to their closing quote, objects
// and arrays to the bracket that closes them, literals to a delimiter.
func skipValue(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
			continue
		case '}', ']':
			depth--
		default:
			if depth > 0 {
				continue
			}
			for i < len(b) && !endsLiteral(b[i]) {
				i++
			}
			return i
		}
		if depth == 0 {
			return i + 1
		}
	}
	return i
}

// mutationsRefused is the whole reply to POST /v1/mutations. A shard is
// an artifact cut without the raw dataset, so no shard can take a write:
// the router refuses at once, with no shard RPC, and names where writes go.
const mutationsRefused = `{"error":"the router serves reads only; send mutations to the full trained server: ` +
	`locec-serve -artifact <full .locec written by locec train -embed-dataset>, with -wal for durability"}` + "\n"

func refuseMutations(w http.ResponseWriter, _ *http.Request) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusConflict)
	_, _ = io.WriteString(w, mutationsRefused)
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
