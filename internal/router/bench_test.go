package router_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"locec/internal/router"
)

// BenchmarkLookup routes single-edge lookups through fleets of 1, 2, 4
// and 8 shards over HandlerTransport (no wire). Each shard holds 1/N of
// the data, so per-request cost should stay flat in fleet size —
// benchmark/'s router_read_10k runs two shards only. The loopback row
// runs the two-shard fleet over HTTPTransport and real sockets: the
// difference to shards=2 is the router-to-shard hop.
func BenchmarkLookup(b *testing.B) {
	f := fleet(b)
	for _, c := range []struct {
		n        int
		loopback bool
	}{{1, false}, {2, false}, {4, false}, {8, false}, {2, true}} {
		n := c.n
		// Built here, not inside b.Run: its body reruns as b.N ramps up.
		handlers, err := f.cut(n)
		if err != nil {
			b.Fatal(err)
		}
		var tr router.Transport = &router.HandlerTransport{Handlers: handlers}
		name := fmt.Sprintf("shards=%d", n)
		if c.loopback {
			tr, name = &router.HTTPTransport{BaseURLs: serveShards(b, handlers)}, name+"/loopback"
		}
		h := newTestRouter(b, tr, func(c *router.Config) { c.Shards = n }).Handler()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := f.edges[i%len(f.edges)]
				rec := do(h, http.MethodGet, fmt.Sprintf("/v1/edge?u=%d&v=%d", e.U, e.V), nil)
				if rec.Code != http.StatusOK {
					b.Fatalf("edge %v via %d shards = %d: %s", e, n, rec.Code, rec.Body)
				}
			}
		})
	}
}

// BenchmarkScatterClassify runs one 64-edge POST /v1/classify through the
// router, HTTPTransport and two loopback shards per op: the split, two
// sub-batches, two shard replies (cache hits after the first op) and the
// spliced reply.
func BenchmarkScatterClassify(b *testing.B) {
	h, batch := scatterFleet(b)
	body := bytes.NewReader(batch)
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", body)
	w := &sinkWriter{h: make(http.Header)}
	b.ReportAllocs()
	for b.Loop() {
		clear(w.h)
		body.Reset(batch)
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d, want 200", w.status)
		}
	}
}

// scatterFleet is a two-shard fleet over loopback sockets and a 64-edge
// batch that spans both shards, the classify half of router_read_10k.
func scatterFleet(tb testing.TB) (h http.Handler, batch []byte) {
	tb.Helper()
	f := fleet(tb)
	handlers, err := f.cut(2)
	if err != nil {
		tb.Fatal(err)
	}
	h = newTestRouter(tb, &router.HTTPTransport{BaseURLs: serveShards(tb, handlers)}, func(c *router.Config) { c.Shards = 2 }).Handler()
	if len(f.edges) < 64 {
		tb.Fatalf("fixture has %d edges, want ≥ 64", len(f.edges))
	}
	b := []byte(`{"edges":[`)
	for i, e := range f.edges[:64] {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"u":%d,"v":%d}`, e.U, e.V)
	}
	return h, append(b, "]}"...)
}
