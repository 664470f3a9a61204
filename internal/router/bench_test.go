package router_test

import (
	"fmt"
	"net/http"
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
