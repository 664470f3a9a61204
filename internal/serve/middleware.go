package serve

import (
	"log/slog"
	"net/http"
	"sync"
	"time"
)

// statusWriter captures the response status and byte count for logging.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

// statusWriters recycles the middleware's writers: one would otherwise be
// allocated per request. No handler keeps its ResponseWriter past return.
var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// withLogging wraps a handler with structured request logging: one line per
// request with method, path, status, bytes, duration, and the snapshot
// version that answered it (the version the handler actually read, taken
// from the X-Snapshot-Version response header — during a reload this can
// lag the latest published version).
func (s *Server) withLogging(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := statusWriters.Get().(*statusWriter)
		*sw = statusWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(t0)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		// The mux sets r.Pattern while routing, so after ServeHTTP it holds
		// the matched route. Unmatched requests (404s, wrong-method 405s)
		// collapse into one sentinel bucket — keying them by raw path would
		// let arbitrary clients grow the histogram map without bound.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		s.lat.observe(route, dur)
		// Typed attributes, not key/value pairs: boxing each value in an
		// interface would cost an allocation per field per request.
		log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int("bytes", sw.bytes),
			slog.Float64("duration_ms", float64(dur.Microseconds())/1000),
			slog.String("snapshot", sw.Header().Get(snapshotHeader)),
		)
		*sw = statusWriter{}
		statusWriters.Put(sw)
	})
}
