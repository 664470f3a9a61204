package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"locec/internal/graph"
)

// sinkWriter is a ResponseWriter that keeps nothing of the body and reuses
// one header map, so an allocation count over Handler().ServeHTTP is the
// handler chain's own: routing, logging, the handler and its encoding.
type sinkWriter struct {
	h      http.Header
	status int
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) WriteHeader(status int)      { w.status = status }
func (w *sinkWriter) Write(p []byte) (int, error) { return len(p), nil }

// serveAllocs is the mean allocation count of one request through h on a
// warm snapshot; next returns the run's request.
func serveAllocs(t *testing.T, h http.Handler, runs int, next func() *http.Request) float64 {
	t.Helper()
	w := &sinkWriter{h: make(http.Header)}
	for range 3 { // warm the route's histogram, the pools and the header map
		clear(w.h)
		h.ServeHTTP(w, next())
	}
	return testing.AllocsPerRun(runs, func() {
		clear(w.h)
		w.status = 0
		h.ServeHTTP(w, next())
		if w.status != http.StatusOK {
			t.Fatalf("status %d, want 200", w.status)
		}
	})
}

// TestReadRouteAllocations bounds what one read costs the heap through the
// whole handler chain: a GET /v1/edge hit and a 64-edge POST /v1/classify
// that misses the cache. Typed documents holding their probability vectors
// by value, ids read straight from the raw query, a per-snapshot version
// header and one marshal per response are what keep the counts down; a
// heap object per field or a second parse shows up here. Requests are
// built before the count, so only the server's allocations are in it.
func TestReadRouteAllocations(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	const runs = 50

	u, v := anyEdge(s)
	edge := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v), nil)
	edgeAllocs := serveAllocs(t, h, runs, func() *http.Request { return edge })

	// 64 distinct edges, rotated by one per request: every body differs,
	// so every request misses the cache.
	var edges []graph.Edge
	s.current().ds.G.ForEachEdge(func(u, v graph.NodeID) {
		if len(edges) < 64 {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	})
	if len(edges) < 64 {
		t.Fatalf("snapshot has %d edges, want ≥ 64", len(edges))
	}
	reqs := make([]*http.Request, runs+4)
	for i := range reqs {
		var b bytes.Buffer
		b.WriteString(`{"edges":[`)
		for j := range edges {
			e := edges[(i+j)%len(edges)]
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"u":%d,"v":%d}`, e.U, e.V)
		}
		b.WriteString(`]}`)
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(b.Bytes()))
	}
	i := 0
	classifyAllocs := serveAllocs(t, h, runs, func() *http.Request { i++; return reqs[i-1] })

	// Measured 3 and 17 on amd64 with Go 1.24 (7 for the edge while it
	// parsed url.Values; the untyped documents before them: 18 and 108);
	// under -race the pools miss at random.
	edgeBound, classifyBound := 5.0, 24.0
	if raceBuild {
		edgeBound, classifyBound = 16, 40
	}
	for _, c := range []struct {
		route      string
		got, bound float64
	}{
		{"GET /v1/edge", edgeAllocs, edgeBound},
		{"POST /v1/classify (64-edge miss)", classifyAllocs, classifyBound},
	} {
		if c.got > c.bound {
			t.Errorf("%s: %.1f allocations per request, want ≤ %.0f", c.route, c.got, c.bound)
		} else {
			t.Logf("%s: %.1f allocations per request (bound %.0f)", c.route, c.got, c.bound)
		}
	}
}
