package testutil

import (
	"runtime"
	"testing"
)

// SetProcs overrides GOMAXPROCS — the repository's only parallel width —
// for the rest of the test, so a wider or narrower run is reachable on any
// runner, and restores it on cleanup.
func SetProcs(t testing.TB, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}
