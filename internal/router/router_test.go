package router_test

// The network fault matrix, PR-6 style: every router RPC boundary is
// walked with a deterministic injected fault (error, drop, delay, kill at
// the nth RPC) and the router's response is asserted to be either
// byte-equivalent to a single-process control server or explicitly
// partial with an accurate missing_shards list — never silently wrong,
// never hung past the deadline. The control and every shard cold-start
// from the same trained artifact, so correct answers are byte-identical.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"locec/internal/artifact"
	"locec/internal/graph"
	"locec/internal/ring"
	"locec/internal/router"
	"locec/internal/serve"
	"locec/internal/testutil/trained"
)

const fleetShards = 3

// fixture is the shared fleet: one full control server and its N-way cut,
// built once per test binary (training is the expensive part).
type fleetFixture struct {
	control  http.Handler
	art      *artifact.Artifact // the control's export; cut cuts it
	dir      string             // where the cuts are written
	shards   []http.Handler
	ring     *ring.Ring
	edges    []edge // every edge of the graph, for routing assertions
	numNodes int
}

type edge struct{ U, V uint32 }

var (
	quiet = slog.New(slog.NewTextHandler(io.Discard, nil)) // every fixture's logger

	fixtureOnce sync.Once
	fixture     *fleetFixture
	fixtureErr  error
)

func fleet(t testing.TB) *fleetFixture {
	t.Helper()
	fixtureOnce.Do(func() { fixture, fixtureErr = buildFleet(t) })
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

func buildFleet(t testing.TB) (*fleetFixture, error) {
	full, err := serve.New(serve.Config{
		Artifact: trained.Artifact(t, 80, "labelprop", false).Path,
		Logger:   quiet,
	})
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	full.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/artifact", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/artifact: status %d: %s", rec.Code, rec.Body)
	}
	art, err := artifact.Load(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "locec-router-test")
	if err != nil {
		return nil, err
	}
	f := &fleetFixture{
		control:  full.Handler(),
		art:      art,
		dir:      tmp,
		ring:     ring.MustNew(fleetShards),
		numNodes: full.Dataset().G.NumNodes(),
	}
	full.Dataset().G.ForEachEdge(func(u, v graph.NodeID) {
		f.edges = append(f.edges, edge{uint32(u), uint32(v)})
	})
	f.shards, err = f.cut(fleetShards)
	return f, err
}

// cut slices the control's artifact n ways and cold-starts one server per
// slice. The servers live for the whole test binary; the process exit
// reaps their background goroutines.
func (f *fleetFixture) cut(n int) ([]http.Handler, error) {
	cuts, err := artifact.CutShards(f.art, n)
	if err != nil {
		return nil, err
	}
	handlers := make([]http.Handler, n)
	for i, cut := range cuts {
		path := filepath.Join(f.dir, artifact.ShardPath("model.locec", i, n))
		if err := cut.SaveFile(path); err != nil {
			return nil, err
		}
		s, err := serve.New(serve.Config{
			Artifact:   path,
			ShardIndex: i,
			ShardCount: n,
			Logger:     quiet,
		})
		if err != nil {
			return nil, err
		}
		handlers[i] = s.Handler()
	}
	return handlers, nil
}

// newTestRouter builds a router over the given transport with fast,
// deterministic fault-matrix timings.
func newTestRouter(t testing.TB, tr router.Transport, mutate func(*router.Config)) *router.Router {
	t.Helper()
	cfg := router.Config{
		Shards:           fleetShards,
		Transport:        tr,
		AttemptTimeout:   250 * time.Millisecond,
		RequestTimeout:   2 * time.Second,
		MaxRetries:       2,
		RetryBase:        time.Millisecond,
		RetryMax:         4 * time.Millisecond,
		HedgeMin:         5 * time.Millisecond,
		HedgeMax:         20 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute, // tests that want recovery override
		Seed:             1,
		Logger:           quiet,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// do runs one request against a handler and returns the recorder.
func do(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// pickEdges returns one owned edge per shard (nil entry if a shard owns
// no edge — does not happen at this size).
func (f *fleetFixture) pickEdges() [fleetShards]edge {
	var out [fleetShards]edge
	seen := [fleetShards]bool{}
	for _, e := range f.edges {
		o := f.ring.OwnerEdge(e.U, e.V)
		if !seen[o] {
			out[o], seen[o] = e, true
		}
	}
	for i, ok := range seen {
		if !ok {
			panic(fmt.Sprintf("shard %d owns no edges in the fixture", i))
		}
	}
	return out
}

// classifyBody builds a batch body spanning all shards (3 edges per
// shard where available) plus one unknown pair.
func (f *fleetFixture) classifyBody() ([]byte, []edge) {
	perShard := map[int]int{}
	var edges []edge
	for _, e := range f.edges {
		o := f.ring.OwnerEdge(e.U, e.V)
		if perShard[o] < 3 {
			perShard[o]++
			edges = append(edges, e)
		}
	}
	// A non-edge known to the graph's node range: found=false everywhere.
	edges = append(edges, edge{0, uint32(f.numNodes - 1)})
	type ce struct {
		U uint32 `json:"u"`
		V uint32 `json:"v"`
	}
	doc := struct {
		Edges []ce `json:"edges"`
	}{}
	for _, e := range edges {
		doc.Edges = append(doc.Edges, ce{e.U, e.V})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return b, edges
}

// controlResults runs the classify batch against the control server and
// returns the per-edge raw JSON entries.
func controlResults(t *testing.T, f *fleetFixture, body []byte) []json.RawMessage {
	t.Helper()
	rec := do(f.control, http.MethodPost, "/v1/classify", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("control classify = %d: %s", rec.Code, rec.Body.String())
	}
	var doc struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Results
}

// jsonEqual compares two JSON values structurally.
func jsonEqual(a, b []byte) bool {
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		return false
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		return false
	}
	ja, _ := json.Marshal(va)
	jb, _ := json.Marshal(vb)
	return bytes.Equal(ja, jb)
}

// TestRouterEquivalenceNoFaults pins the baseline: through a healthy
// fleet, every route answers exactly like the single-process control.
// It runs over two transports: in-process handlers, and HTTPTransport
// over loopback servers wrapping the same shards.
func TestRouterEquivalenceNoFaults(t *testing.T) {
	f := fleet(t)
	for _, tc := range []struct {
		name string
		tr   router.Transport
	}{
		{"handler", &router.FaultTransport{Inner: &router.HandlerTransport{Handlers: f.shards}}},
		{"http", &router.HTTPTransport{BaseURLs: serveShards(t, f.shards)}},
	} {
		t.Run(tc.name, func(t *testing.T) { assertEquivalent(t, f, newTestRouter(t, tc.tr, nil).Handler()) })
	}
}

// assertEquivalent checks every route through h against the control.
func assertEquivalent(t *testing.T, f *fleetFixture, h http.Handler) {
	t.Helper()
	for _, e := range f.pickEdges() {
		path := fmt.Sprintf("/v1/edge?u=%d&v=%d", e.U, e.V)
		want := do(f.control, http.MethodGet, path, nil)
		got := do(h, http.MethodGet, path, nil)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("edge %v: router %d %q, control %d %q", e, got.Code, got.Body, want.Code, want.Body)
		}
	}

	for node := 0; node < 12; node++ {
		path := fmt.Sprintf("/v1/communities/%d", node)
		want := do(f.control, http.MethodGet, path, nil)
		got := do(h, http.MethodGet, path, nil)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("communities/%d: router %d, control %d", node, got.Code, want.Code)
		}
	}

	body, _ := f.classifyBody()
	want := controlResults(t, f, body)
	got := do(h, http.MethodPost, "/v1/classify", body)
	if got.Code != http.StatusOK {
		t.Fatalf("classify = %d: %s", got.Code, got.Body.String())
	}
	var doc struct {
		Results []json.RawMessage `json:"results"`
		Partial bool              `json:"partial"`
	}
	if err := json.Unmarshal(got.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Partial {
		t.Fatal("healthy fleet answered partial")
	}
	if len(doc.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(doc.Results), len(want))
	}
	for i := range want {
		if !jsonEqual(doc.Results[i], want[i]) {
			t.Fatalf("result %d: %s, control %s", i, doc.Results[i], want[i])
		}
	}
}

// matrixRoute is one router RPC boundary the fault matrix walks.
type matrixRoute struct {
	name string
	run  func(h http.Handler) *httptest.ResponseRecorder
	// check asserts the faulted response given the mode; equivalence
	// checks use the captured control.
	check func(t *testing.T, f *fleetFixture, mode string, rec *httptest.ResponseRecorder)
}

// TestFaultMatrix walks every RPC boundary of every route with every
// fault mode. Modes error/drop/delay must be fully absorbed (retries and
// hedges): response equivalent to control. Kill makes a shard
// permanently dead: the response must either still be equivalent (the
// fault landed on an RPC whose work another attempt absorbed — not
// possible for kill, which poisons the shard, so in practice:) or name
// the dead shard explicitly — 503 + missing_shards for single-key
// routes, partial:true + accurate missing_shards with control-identical
// surviving entries for scatter-gather. Runs under -race in CI.
func TestFaultMatrix(t *testing.T) {
	f := fleet(t)
	edges := f.pickEdges()
	classifyBody, classifyEdges := f.classifyBody()
	wantClassify := controlResults(t, f, classifyBody)

	edgePath := fmt.Sprintf("/v1/edge?u=%d&v=%d", edges[1].U, edges[1].V)
	wantEdge := do(f.control, http.MethodGet, edgePath, nil)
	commPath := "/v1/communities/2"
	wantComm := do(f.control, http.MethodGet, commPath, nil)

	assertSingleKey := func(want *httptest.ResponseRecorder) func(*testing.T, *fleetFixture, string, *httptest.ResponseRecorder) {
		return func(t *testing.T, f *fleetFixture, mode string, rec *httptest.ResponseRecorder) {
			if mode != router.FaultKill {
				if rec.Code != want.Code || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
					t.Fatalf("fault not absorbed: %d %q, control %d %q", rec.Code, rec.Body, want.Code, want.Body)
				}
				return
			}
			// Kill: equivalent (fault hit a non-owner RPC — none exist for
			// single-key) or an explicit 503 naming the shard.
			if rec.Code == want.Code && bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
				return
			}
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("kill: %d %q, want control-equivalent or 503", rec.Code, rec.Body)
			}
			var doc struct {
				Missing []int `json:"missing_shards"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || len(doc.Missing) != 1 {
				t.Fatalf("kill 503 without an accurate missing_shards list: %s", rec.Body)
			}
		}
	}

	routes := []matrixRoute{
		{
			name:  "edge",
			run:   func(h http.Handler) *httptest.ResponseRecorder { return do(h, http.MethodGet, edgePath, nil) },
			check: assertSingleKey(wantEdge),
		},
		{
			name:  "communities",
			run:   func(h http.Handler) *httptest.ResponseRecorder { return do(h, http.MethodGet, commPath, nil) },
			check: assertSingleKey(wantComm),
		},
		{
			name: "classify",
			run: func(h http.Handler) *httptest.ResponseRecorder {
				return do(h, http.MethodPost, "/v1/classify", classifyBody)
			},
			check: func(t *testing.T, f *fleetFixture, mode string, rec *httptest.ResponseRecorder) {
				if rec.Code != http.StatusOK {
					t.Fatalf("classify = %d: %s", rec.Code, rec.Body.String())
				}
				var doc struct {
					Results []json.RawMessage `json:"results"`
					Partial bool              `json:"partial"`
					Missing []int             `json:"missing_shards"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
					t.Fatal(err)
				}
				if len(doc.Results) != len(wantClassify) {
					t.Fatalf("%d results, want %d", len(doc.Results), len(wantClassify))
				}
				if mode != router.FaultKill {
					if doc.Partial || len(doc.Missing) != 0 {
						t.Fatalf("%s fault leaked into a partial response: missing=%v", mode, doc.Missing)
					}
					for i := range wantClassify {
						if !jsonEqual(doc.Results[i], wantClassify[i]) {
							t.Fatalf("result %d: %s, control %s", i, doc.Results[i], wantClassify[i])
						}
					}
					return
				}
				// Kill: exactly one shard dark, named accurately; its
				// entries null, every surviving entry control-identical.
				if !doc.Partial || len(doc.Missing) != 1 {
					t.Fatalf("kill: partial=%v missing=%v, want partial with exactly one shard", doc.Partial, doc.Missing)
				}
				dead := doc.Missing[0]
				for i, e := range classifyEdges {
					owner := f.ring.OwnerEdge(e.U, e.V)
					if owner == dead {
						if string(doc.Results[i]) != "null" {
							t.Fatalf("entry %d belongs to dead shard %d but is %s, want null", i, dead, doc.Results[i])
						}
					} else if !jsonEqual(doc.Results[i], wantClassify[i]) {
						t.Fatalf("surviving entry %d: %s, control %s", i, doc.Results[i], wantClassify[i])
					}
				}
			},
		},
		{
			name: "mutations",
			run: func(h http.Handler) *httptest.ResponseRecorder {
				body := []byte(`{"mutations":[{"op":"add","u":0,"v":9},{"op":"add","u":30,"v":41}],"wait":true}`)
				return do(h, http.MethodPost, "/v1/mutations", body)
			},
			check: func(t *testing.T, f *fleetFixture, mode string, rec *httptest.ResponseRecorder) {
				// Artifact-cut shards are read-only: every reachable shard
				// answers 409, so the honest aggregate is always 207. The
				// invariant under faults: every receipt is either a real
				// shard response (409 + body) or an explicit transport
				// error — never a fabricated success.
				if rec.Code != http.StatusMultiStatus {
					t.Fatalf("mutations = %d, want 207 from a read-only fleet: %s", rec.Code, rec.Body.String())
				}
				var doc struct {
					Shards []struct {
						Shard    int             `json:"shard"`
						Status   int             `json:"status"`
						Response json.RawMessage `json:"response"`
						Error    string          `json:"error"`
					} `json:"shards"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
					t.Fatal(err)
				}
				if len(doc.Shards) == 0 {
					t.Fatal("no shard receipts")
				}
				for _, sr := range doc.Shards {
					switch {
					case sr.Status == http.StatusConflict && len(sr.Response) > 0:
						// The real read-only refusal, passed through.
					case sr.Status == http.StatusServiceUnavailable && sr.Error != "":
						// An honest transport failure.
					default:
						t.Fatalf("shard %d receipt is neither a real response nor an explicit error: status=%d err=%q",
							sr.Shard, sr.Status, sr.Error)
					}
					if sr.Status >= 200 && sr.Status < 300 {
						t.Fatalf("fabricated success from shard %d", sr.Shard)
					}
				}
			},
		},
	}

	for _, route := range routes {
		route := route
		t.Run(route.name, func(t *testing.T) {
			// Clean run to count the route's RPC boundaries.
			cleanTr := &router.FaultTransport{Inner: &router.HandlerTransport{Handlers: f.shards}}
			rec := route.run(newTestRouter(t, cleanTr, nil).Handler())
			route.check(t, f, "none", rec)
			rpcs := cleanTr.Calls()
			if rpcs == 0 {
				t.Fatal("route made no RPCs")
			}
			for _, mode := range []string{router.FaultError, router.FaultDrop, router.FaultDelay, router.FaultKill} {
				for n := int64(1); n <= rpcs; n++ {
					t.Run(fmt.Sprintf("%s/rpc=%d", mode, n), func(t *testing.T) {
						tr := &router.FaultTransport{
							Inner: &router.HandlerTransport{Handlers: f.shards},
							Mode:  mode,
							N:     n,
							Delay: 30 * time.Millisecond,
						}
						r := newTestRouter(t, tr, nil)
						t0 := time.Now()
						rec := route.run(r.Handler())
						if elapsed := time.Since(t0); elapsed > 3*time.Second {
							t.Fatalf("request took %v — hung past the request deadline", elapsed)
						}
						route.check(t, f, mode, rec)
					})
				}
			}
		})
	}
}

// TestKillOneShardMidLoad is the acceptance scenario: under concurrent
// load, one shard dies; its breaker opens (fail fast), reads on the
// surviving shards keep serving control-identical answers throughout,
// and after the shard revives a probe closes the breaker and its keys
// serve again.
func TestKillOneShardMidLoad(t *testing.T) {
	f := fleet(t)
	tr := &router.FaultTransport{Inner: &router.HandlerTransport{Handlers: f.shards}}
	r := newTestRouter(t, tr, func(c *router.Config) {
		c.AttemptTimeout = 100 * time.Millisecond
		c.MaxRetries = 1
		c.BreakerThreshold = 3
		c.BreakerCooldown = 10 * time.Minute // recovery is probe-driven below
	})
	h := r.Handler()
	edges := f.pickEdges()
	const victim = 2

	// Control answers per shard-owned edge.
	wants := map[int]*httptest.ResponseRecorder{}
	for s, e := range edges {
		wants[s] = do(f.control, http.MethodGet, fmt.Sprintf("/v1/edge?u=%d&v=%d", e.U, e.V), nil)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for s, e := range edges {
					rec := do(h, http.MethodGet, fmt.Sprintf("/v1/edge?u=%d&v=%d", e.U, e.V), nil)
					if s == victim {
						// Either the pre-kill answer or an explicit 503 —
						// never a wrong answer.
						if rec.Code != wants[s].Code && rec.Code != http.StatusServiceUnavailable {
							select {
							case errCh <- fmt.Errorf("victim shard: got %d %s", rec.Code, rec.Body.String()):
							default:
							}
						}
						continue
					}
					if rec.Code != wants[s].Code || !bytes.Equal(rec.Body.Bytes(), wants[s].Body.Bytes()) {
						select {
						case errCh <- fmt.Errorf("surviving shard %d: got %d, want %d", s, rec.Code, wants[s].Code):
						default:
						}
					}
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond) // let clean traffic flow
	tr.Kill(victim)
	// Wait for the breaker to open under load.
	deadline := time.Now().Add(5 * time.Second)
	for breakerState(t, h, victim) != "open" {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("victim breaker never opened; stats: %s", do(h, http.MethodGet, "/v1/stats", nil).Body.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Survivors keep serving while the victim is dark.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Victim requests now fail fast via the open circuit.
	e := edges[victim]
	rec := do(h, http.MethodGet, fmt.Sprintf("/v1/edge?u=%d&v=%d", e.U, e.V), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("open-circuit read = %d, want 503", rec.Code)
	}

	// Recovery: the shard comes back, a probe closes the breaker, the
	// keys serve again with the same answers as before the crash.
	tr.Revive(victim)
	r.ProbeOnce(t.Context())
	if got := breakerState(t, h, victim); got != "closed" {
		t.Fatalf("breaker after revive+probe = %q, want closed", got)
	}
	rec = do(h, http.MethodGet, fmt.Sprintf("/v1/edge?u=%d&v=%d", e.U, e.V), nil)
	if rec.Code != wants[victim].Code || !bytes.Equal(rec.Body.Bytes(), wants[victim].Body.Bytes()) {
		t.Fatalf("post-recovery read = %d %q, want control answer", rec.Code, rec.Body)
	}
}

// breakerState reads a shard's breaker state from /v1/stats.
func breakerState(t *testing.T, h http.Handler, shard int) string {
	t.Helper()
	rec := do(h, http.MethodGet, "/v1/stats", nil)
	var doc struct {
		Shards []struct {
			Breaker string `json:"breaker"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Shards[shard].Breaker
}

// TestRouterReadyz pins degraded readiness: ready while any circuit is
// closed, 503 only when every shard is dark.
func TestRouterReadyz(t *testing.T) {
	f := fleet(t)
	tr := &router.FaultTransport{Inner: &router.HandlerTransport{Handlers: f.shards}}
	r := newTestRouter(t, tr, func(c *router.Config) { c.BreakerThreshold = 1 })
	h := r.Handler()

	if rec := do(h, http.MethodGet, "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthy readyz = %d", rec.Code)
	}
	for s := 0; s < fleetShards; s++ {
		tr.Kill(s)
	}
	r.ProbeOnce(t.Context())
	if rec := do(h, http.MethodGet, "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-dead readyz = %d, want 503", rec.Code)
	}
	tr.Revive(1)
	r.ProbeOnce(t.Context())
	if rec := do(h, http.MethodGet, "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("one-survivor readyz = %d, want 200 (degraded is still ready)", rec.Code)
	}
}

// TestRouterStatsCounters pins that retries and hedges surface in stats.
func TestRouterStatsCounters(t *testing.T) {
	f := fleet(t)
	edges := f.pickEdges()
	e := edges[0]
	// A transient error at RPC 1 forces one retry on shard 0.
	tr := &router.FaultTransport{
		Inner: &router.HandlerTransport{Handlers: f.shards},
		Mode:  router.FaultError,
		N:     1,
	}
	r := newTestRouter(t, tr, nil)
	h := r.Handler()
	if rec := do(h, http.MethodGet, fmt.Sprintf("/v1/edge?u=%d&v=%d", e.U, e.V), nil); rec.Code != http.StatusOK {
		t.Fatalf("edge after transient error = %d", rec.Code)
	}
	rec := do(h, http.MethodGet, "/v1/stats", nil)
	var doc struct {
		Shards []struct {
			Retries  int64 `json:"retries"`
			Failures int64 `json:"failures"`
		} `json:"shards"`
		ShardCount int `json:"shard_count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ShardCount != fleetShards || len(doc.Shards) != fleetShards {
		t.Fatalf("stats shard count %d/%d", doc.ShardCount, len(doc.Shards))
	}
	owner := f.ring.OwnerEdge(e.U, e.V)
	if doc.Shards[owner].Retries < 1 || doc.Shards[owner].Failures < 1 {
		t.Fatalf("transient error left no trace: %+v", doc.Shards[owner])
	}
}
