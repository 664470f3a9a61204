package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"locec/internal/ring"
	"locec/internal/router"
)

// switchTransport hands each RPC to the current FaultTransport, so a step
// can arm a fault at its own first RPC without writing the fields of a
// FaultTransport an earlier step's straggler may still be reading.
type switchTransport struct {
	cur atomic.Pointer[router.FaultTransport]
}

func (s *switchTransport) Do(ctx context.Context, shard int, method, path string, body []byte) (*router.Response, error) {
	return s.cur.Load().Do(ctx, shard, method, path, body)
}

// TestSimulatedRouter runs seeded schedules through router.New over two
// and three shards cut from one trained artifact, on loopback sockets.
// Each step may kill a live shard or restart a dark one (Revive, then a
// probe closes its breaker), then sends one read — an edge, a node's
// communities or a classify batch — with a fault armed at its first RPC:
// none, an injected error (retried), a drop or a 30 ms delay (both
// stalled primaries the hedge answers). After every step the reply must
// be the single-server control's, byte for byte, except what a dark
// shard owns: a 503 naming it for a single key, null entries and the
// shard in missing_shards for a batch. The run must have hedged.
func TestSimulatedRouter(t *testing.T) {
	f := fleet(t)
	for _, n := range []int{2, 3} {
		handlers, err := f.cut(n)
		if err != nil {
			t.Fatal(err)
		}
		urls := serveShards(t, handlers)
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", n, seed), func(t *testing.T) {
				simulateRouter(t, f, n, urls, seed)
			})
		}
	}
}

func simulateRouter(t *testing.T, f *fleetFixture, n int, urls []string, seed int64) {
	const steps = 60
	rng := rand.New(rand.NewSource(seed))
	rg := ring.MustNew(n)
	inner := httpTransport(t, urls...)
	sw := &switchTransport{}
	sw.cur.Store(&router.FaultTransport{Inner: inner})
	r := newTestRouter(t, sw, func(c *router.Config) { c.Shards = n })
	h := r.Handler()
	dark := make([]bool, n)
	faults := []string{"", "", router.FaultError, router.FaultDrop, router.FaultDelay, router.FaultDelay}
	var kills, restarts int
	// arm installs a transport with the model's dark shards killed and mode
	// armed at its first RPC.
	arm := func(mode string) *router.FaultTransport {
		ft := &router.FaultTransport{Inner: inner, Mode: mode, N: 1, Delay: 30 * time.Millisecond}
		for s, d := range dark {
			if d {
				ft.Kill(s)
			}
		}
		sw.cur.Store(ft)
		return ft
	}
	arm("")
	for step := range steps {
		switch x, s := rng.Intn(10), rng.Intn(n); {
		case x < 2 && !dark[s]:
			dark[s] = true
			kills++
		case x < 4 && x >= 2 && dark[s]:
			dark[s] = false
			arm("") // the restarted shard's probe meets no fault
			r.ProbeOnce(t.Context())
			restarts++
		}
		ft := arm(faults[rng.Intn(len(faults))])
		what := fmt.Sprintf("step %d (%s fault, dark %v)", step, ft.Mode, dark)
		switch rng.Intn(3) {
		case 0:
			e := f.edges[rng.Intn(len(f.edges))]
			path := fmt.Sprintf("/v1/edge?u=%d&v=%d", e.U, e.V)
			simCheckKey(t, what+" "+path, f, h, path, dark[rg.OwnerEdge(e.U, e.V)], rg.OwnerEdge(e.U, e.V))
		case 1:
			node := rng.Intn(f.numNodes)
			path := fmt.Sprintf("/v1/communities/%d", node)
			simCheckKey(t, what+" "+path, f, h, path, dark[rg.OwnerNode(uint32(node))], rg.OwnerNode(uint32(node)))
		default:
			batch := make([]edge, 1+rng.Intn(16))
			for i := range batch {
				batch[i] = f.edges[rng.Intn(len(f.edges))]
			}
			if rng.Intn(4) == 0 { // a pair of known nodes that is no edge
				batch[rng.Intn(len(batch))] = edge{0, uint32(f.numNodes - 1)}
			}
			simCheckBatch(t, what, f, h, rg, batch, dark)
		}
	}
	var doc struct {
		Shards []struct {
			Hedges int64 `json:"hedges"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(do(h, http.MethodGet, "/v1/stats", nil).Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	hedges := int64(0)
	for _, s := range doc.Shards {
		hedges += s.Hedges
	}
	if hedges == 0 || kills == 0 {
		t.Fatalf("%d steps hedged %d times and killed %d shards; the schedule must do both", steps, hedges, kills)
	}
	t.Logf("%d steps: %d kills, %d restarts, %d hedges", steps, kills, restarts, hedges)
}

// simCheckKey holds a single-key read to the control, or to the 503
// naming its owner when the owner is dark.
func simCheckKey(t *testing.T, what string, f *fleetFixture, h http.Handler, path string, dark bool, owner int) {
	t.Helper()
	got := do(h, http.MethodGet, path, nil)
	if dark {
		var doc struct {
			Missing []int `json:"missing_shards"`
		}
		if err := json.Unmarshal(got.Body.Bytes(), &doc); got.Code != http.StatusServiceUnavailable || err != nil || !slices.Equal(doc.Missing, []int{owner}) {
			t.Fatalf("%s: dark owner %d: %d %q, want 503 naming it", what, owner, got.Code, got.Body)
		}
		return
	}
	want := do(f.control, http.MethodGet, path, nil)
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s: router %d %q, control %d %q", what, got.Code, got.Body, want.Code, want.Body)
	}
}

// simCheckBatch holds a classify batch to the control entry by entry:
// byte-equal where the owner is live, null where it is dark, and the dark
// owners, ascending, in missing_shards.
func simCheckBatch(t *testing.T, what string, f *fleetFixture, h http.Handler, rg *ring.Ring, batch []edge, dark []bool) {
	t.Helper()
	b := []byte(`{"edges":[`)
	for i, e := range batch {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"u":%d,"v":%d}`, e.U, e.V)
	}
	b = append(b, "]}"...)
	want := controlResults(t, f, b)
	got := do(h, http.MethodPost, "/v1/classify", b)
	var doc struct {
		Results []json.RawMessage `json:"results"`
		Partial bool              `json:"partial"`
		Missing []int             `json:"missing_shards"`
	}
	if err := json.Unmarshal(got.Body.Bytes(), &doc); got.Code != http.StatusOK || err != nil || len(doc.Results) != len(want) {
		t.Fatalf("%s: classify of %d edges: %d %q", what, len(batch), got.Code, got.Body)
	}
	var missing []int
	for i, e := range batch {
		owner := rg.OwnerEdge(e.U, e.V)
		if dark[owner] {
			if !slices.Contains(missing, owner) {
				missing = append(missing, owner)
			}
			if string(doc.Results[i]) != "null" {
				t.Fatalf("%s: entry %d of dark shard %d is %s, want null", what, i, owner, doc.Results[i])
			}
		} else if !bytes.Equal(doc.Results[i], want[i]) {
			t.Fatalf("%s: entry %d: %s, control %s", what, i, doc.Results[i], want[i])
		}
	}
	slices.Sort(missing)
	if doc.Partial != (missing != nil) || !slices.Equal(doc.Missing, missing) {
		t.Fatalf("%s: partial %v, missing %v, want %v", what, doc.Partial, doc.Missing, missing)
	}
}
