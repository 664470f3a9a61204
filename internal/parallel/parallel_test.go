package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locec/internal/testutil"
)

// TestForVisitsEveryIndexOnce: whatever n, grain and GOMAXPROCS, the
// blocks tile [0, n) exactly — every index in one block, no block empty or
// out of range.
func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 2, 7, 1000} {
			for _, grain := range []int{-1, 0, 1, 7, n + 1} {
				t.Run(fmt.Sprintf("procs=%d/n=%d/grain=%d", procs, n, grain), func(t *testing.T) {
					testutil.SetProcs(t, procs)
					visits := make([]atomic.Int32, n)
					var blocks atomic.Int32
					For(n, grain, func(lo, hi int) {
						blocks.Add(1)
						if lo < 0 || lo >= hi || hi > n {
							t.Errorf("block [%d, %d) outside [0, %d)", lo, hi, n)
							return
						}
						if grain > 0 && hi-lo > grain {
							t.Errorf("block [%d, %d) wider than grain %d", lo, hi, grain)
						}
						for i := lo; i < hi; i++ {
							visits[i].Add(1)
						}
					})
					for i := range visits {
						if v := visits[i].Load(); v != 1 {
							t.Fatalf("index %d visited %d times", i, v)
						}
					}
					if grain <= 0 && int(blocks.Load()) > procs {
						t.Fatalf("grain %d made %d blocks for %d workers", grain, blocks.Load(), procs)
					}
				})
			}
		}
	}
}

// TestForOneBlockRunsInline: a single block (and any loop at GOMAXPROCS 1)
// runs on the caller's goroutine, so fn may touch what only the caller may
// — here an unsynchronised variable under -race and t.FailNow.
func TestForOneBlockRunsInline(t *testing.T) {
	for _, tc := range []struct{ procs, n, grain int }{
		{8, 1, 1}, {8, 5, 5}, {8, 5, 6}, {1, 100, 0}, {1, 100, 1}, {1, 100, 7},
	} {
		testutil.SetProcs(t, tc.procs)
		sum := 0
		For(tc.n, tc.grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sum += i
			}
			if sum < 0 {
				t.FailNow() // legal only on the test's own goroutine
			}
		})
		if want := tc.n * (tc.n - 1) / 2; sum != want {
			t.Fatalf("procs=%d n=%d grain=%d: sum %d, want %d", tc.procs, tc.n, tc.grain, sum, want)
		}
	}
}

// TestForClaimsBlocksInAscendingOrder: one worker sees 0, g, 2g, … exactly;
// several workers claim from one shared counter rather than owning a fixed
// share, so a worker stuck in block 0 does not hold back any other block.
func TestForClaimsBlocksInAscendingOrder(t *testing.T) {
	testutil.SetProcs(t, 1)
	var los []int
	For(23, 4, func(lo, hi int) { los = append(los, lo) })
	if fmt.Sprint(los) != "[0 4 8 12 16 20]" {
		t.Fatalf("one worker claimed blocks %v", los)
	}

	for _, procs := range []int{2, 8} {
		testutil.SetProcs(t, procs)
		const n = 64
		var others atomic.Int32
		rest := make(chan struct{})
		For(n, 1, func(lo, hi int) {
			if lo == 0 {
				select {
				case <-rest:
				case <-time.After(30 * time.Second):
					t.Errorf("procs=%d: %d of %d blocks ran while block 0 was held", procs, others.Load(), n-1)
				}
				return
			}
			if others.Add(1) == n-1 {
				close(rest)
			}
		})
	}
}

// TestConcurrentCallers: For and Each share no state between calls, so
// eight callers at once each get their own complete loop. Run under
// -race -count=10 in CI.
func TestConcurrentCallers(t *testing.T) {
	testutil.SetProcs(t, 8)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			const n = 500
			forOut, eachOut := make([]int, n), make([]int, 20)
			For(n, 3, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					forOut[i] = i * c
				}
			})
			Each(len(eachOut), func(i int) { eachOut[i] = i + c })
			for i, v := range forOut {
				if v != i*c {
					t.Errorf("caller %d: For left out[%d] = %d", c, i, v)
					return
				}
			}
			for i, v := range eachOut {
				if v != i+c {
					t.Errorf("caller %d: Each left out[%d] = %d", c, i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEachRunsItemsConcurrently: every item runs at once — item i can wait
// for item i+1, the last one running on the caller — and n <= 0 is a
// no-op.
func TestEachRunsItemsConcurrently(t *testing.T) {
	testutil.SetProcs(t, 1)
	const n = 16
	done := make([]chan struct{}, n+1)
	for i := range done {
		done[i] = make(chan struct{})
	}
	close(done[n])
	Each(n, func(i int) {
		<-done[i+1]
		close(done[i])
	})
	select {
	case <-done[0]:
	default:
		t.Fatal("Each returned before its items finished")
	}
	Each(0, func(int) { t.Error("fn called for n = 0") })
	Each(-3, func(int) { t.Error("fn called for n < 0") })
}

// TestEachOneItemRunsInline: a single item runs on the caller's goroutine
// — t.FailNow is legal in it — and Each then allocates nothing: no
// goroutine, no WaitGroup.
func TestEachOneItemRunsInline(t *testing.T) {
	calls := 0
	fn := func(i int) {
		if calls++; i != 0 {
			t.FailNow() // legal only on the test's own goroutine
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Each(1, fn) }); allocs != 0 {
		t.Fatalf("Each(1, fn) allocated %.1f objects, want 0", allocs)
	}
	if calls != 101 { // AllocsPerRun's warm-up call and its 100 runs
		t.Fatalf("fn ran %d times, want 101", calls)
	}
}
