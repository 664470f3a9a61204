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
// benchmark/'s router_read_10k runs two shards only.
func BenchmarkLookup(b *testing.B) {
	f := fleet(b)
	for _, n := range []int{1, 2, 4, 8} {
		// Built here, not inside b.Run: its body reruns as b.N ramps up.
		handlers, err := f.cut(n)
		if err != nil {
			b.Fatal(err)
		}
		h := newTestRouter(b, &router.HandlerTransport{Handlers: handlers},
			func(c *router.Config) { c.Shards = n }).Handler()
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
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
