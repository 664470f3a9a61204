//go:build race

package serve

// raceBuild is true in a -race test binary. There sync.Pool drops a
// quarter of its Puts on purpose — the middleware's writers, encoding/json's
// and log/slog's buffers — so allocation bounds that count on the pools do
// not hold at their production values.
const raceBuild = true
