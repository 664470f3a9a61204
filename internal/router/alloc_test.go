package router_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"locec/internal/router"
)

// sinkWriter is a ResponseWriter that keeps nothing of the body and reuses
// one header map, so the count is the hop's, not the recorder's.
type sinkWriter struct {
	h      http.Header
	status int
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) WriteHeader(status int)      { w.status = status }
func (w *sinkWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestRouterReadAllocations bounds what one GET /v1/edge costs the heap
// through the router, HTTPTransport, a loopback socket and the shard
// server on its far end, all in this process, as router_read_10k counts
// them. A goroutine, channel or client-side header map per exchange shows
// up here.
func TestRouterReadAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("under -race sync.Pool drops Puts at random; CI runs this without it")
	}
	f := fleet(t)
	h := newTestRouter(t, &router.HTTPTransport{BaseURLs: serveShards(t, f.shards)}, nil).Handler()
	e := f.pickEdges()[0]
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/edge?u=%d&v=%d", e.U, e.V), nil)
	w := &sinkWriter{h: make(http.Header)}
	serve := func() {
		clear(w.h)
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d, want 200", w.status)
		}
	}
	for range 3 { // dial, and warm the pools and histograms
		serve()
	}
	allocs := testing.AllocsPerRun(200, serve)
	// Measured 44 on amd64 with Go 1.24: 64 while http.ReadResponse read the
	// reply and both hops parsed url.Values, 105 through net/http's client
	// (a goroutine, channel and timer per hedged read).
	const bound = 48
	if allocs > bound {
		t.Errorf("GET /v1/edge through the router: %.1f allocations, want ≤ %d", allocs, bound)
	} else {
		t.Logf("GET /v1/edge through the router: %.1f allocations (bound %d)", allocs, bound)
	}
}

// TestRouterClassifyAllocations bounds one 64-edge POST /v1/classify
// through the router, HTTPTransport, two loopback sockets and the two
// shards behind them, whose caches answer after the first round.
func TestRouterClassifyAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("under -race sync.Pool drops Puts at random; CI runs this without it")
	}
	h, batch := scatterFleet(t)
	body := bytes.NewReader(batch)
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", body)
	w := &sinkWriter{h: make(http.Header)}
	serve := func() {
		clear(w.h)
		w.status = 0
		body.Reset(batch)
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d, want 200", w.status)
		}
	}
	for range 3 { // dial, fill the shards' caches, warm the pools
		serve()
	}
	allocs := testing.AllocsPerRun(200, serve)
	// Measured 112 on amd64 with Go 1.24; 113 while parallel.Each started
	// a goroutine for every shard, the last included, and 286 while the
	// router decoded each shard reply into json.RawMessage copies and
	// re-encoded them, and http.ReadResponse read the replies.
	const bound = 123
	if allocs > bound {
		t.Errorf("POST /v1/classify through the router: %.1f allocations, want ≤ %d", allocs, bound)
	} else {
		t.Logf("POST /v1/classify through the router: %.1f allocations (bound %d)", allocs, bound)
	}
}
