// Package parallel is the one way this repository goes parallel: every
// fan-out in non-test code is a For or an Each, and the source walk in the
// root docs_test.go fails on a sync.WaitGroup anywhere else.
//
// The determinism rule, written once: fn writes only state that its own
// indices own (egos[i], comms[i], its slice of a flat store), and anything
// merged across indices is merged serially, in index order, after the call
// returns. Under that rule the result is the same whatever the width and
// whichever goroutine ran which index. Width is GOMAXPROCS; nothing takes
// a worker count.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(lo, hi) over [0, n) cut into blocks of grain consecutive
// indices. Blocks are claimed in ascending order from a shared counter by
// min(GOMAXPROCS, blocks) goroutines, the caller's among them, so uneven
// blocks balance themselves; a single block — and every block when
// GOMAXPROCS is 1 — runs on the caller's goroutine with none started.
//
// grain <= 0 asks for one contiguous block per worker: the shape for loops
// whose workers set up state (a cloned network, a feature panel) that
// should be built once per worker rather than once per index. grain 1 is
// the shape for items whose cost varies by orders of magnitude.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	procs := runtime.GOMAXPROCS(0)
	if grain <= 0 {
		grain = (n + procs - 1) / procs
	}
	blocks := (n + grain - 1) / grain
	if blocks == 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	claim := func() {
		for {
			b := int(next.Add(1)) - 1
			if b >= blocks {
				return
			}
			fn(b*grain, min((b+1)*grain, n))
		}
	}
	var wg sync.WaitGroup
	for w := min(procs, blocks); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// Each calls fn(i) for every i in [0, n) at once and waits for all of
// them: every item but the last on a goroutine of its own, the last on the
// caller's, so a single item starts none. The shape for a scatter of
// blocking calls (one request per shard), where the width is the number of
// peers, not of CPUs.
func Each(n int, fn func(i int)) {
	if n <= 1 {
		if n == 1 {
			fn(0)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := range n - 1 {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	fn(n - 1)
	wg.Wait()
}
