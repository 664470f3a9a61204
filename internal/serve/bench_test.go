package serve_test

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"locec/internal/graph"
	"locec/internal/serve"
	"locec/internal/testutil/trained"
)

// benchServer boots a service from the shared trained artifact so every
// serve benchmark measures the same snapshot.
func benchServer(b *testing.B) *serve.Server {
	b.Helper()
	s, err := serve.New(serve.Config{
		Artifact: trained.Artifact(b, 80, "labelprop", false).Path,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// firstEdge returns some friendship present in the live snapshot.
func firstEdge(s *serve.Server) (uint32, uint32) {
	var u, v graph.NodeID
	found := false
	s.Dataset().G.ForEachEdge(func(a, b graph.NodeID) {
		if !found {
			u, v, found = a, b, true
		}
	})
	if !found {
		panic("snapshot has no edges")
	}
	return uint32(u), uint32(v)
}

// BenchmarkServeClassifyBatch measures cached batch throughput: after the
// first request the LRU answers every identical batch. (Single-edge lookup
// throughput is benchmarked at the repo root — BenchmarkServeEdgeLookup —
// through the public serve API.)
func BenchmarkServeClassifyBatch(b *testing.B) {
	s := benchServer(b)
	h := s.Handler()
	u, v := firstEdge(s)
	body := fmt.Sprintf(`{"edges":[{"u":%d,"v":%d}]}`, u, v)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/classify", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				// Errorf, not Fatalf: FailNow must not be called from
				// RunParallel worker goroutines.
				b.Errorf("status %d", rec.Code)
				return
			}
		}
	})
}
