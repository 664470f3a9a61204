package router_test

// HTTPTransport over real loopback sockets: connection reuse, replies
// byte for byte, deadlines, shards that close their connections, and
// many callers at once.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locec/internal/router"
)

// countedServer is an httptest server that counts the connections its
// clients open and close.
type countedServer struct {
	*httptest.Server
	opened, closed atomic.Int64
}

func newCountedServer(t testing.TB, h http.Handler) *countedServer {
	t.Helper()
	s := &countedServer{Server: httptest.NewUnstartedServer(h)}
	s.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		switch state {
		case http.StateNew:
			s.opened.Add(1)
		case http.StateClosed, http.StateHijacked:
			s.closed.Add(1)
		}
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

// serveShards puts each handler behind its own loopback server and
// returns their base URLs, in shard order.
func serveShards(t testing.TB, handlers []http.Handler) []string {
	t.Helper()
	urls := make([]string, len(handlers))
	for i, h := range handlers {
		urls[i] = newCountedServer(t, h).URL
	}
	return urls
}

// httpTransport is an HTTPTransport over urls whose idle connections are
// closed when the test ends.
func httpTransport(tb testing.TB, urls ...string) *router.HTTPTransport {
	tr := &router.HTTPTransport{BaseURLs: urls}
	tb.Cleanup(tr.CloseIdleConnections)
	return tr
}

func get(t *testing.T, tr router.Transport, path string) *router.Response {
	t.Helper()
	resp, err := tr.Do(t.Context(), 0, http.MethodGet, path, nil)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp
}

// waitFor polls cond until it holds or a second has passed.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestHTTPTransportReusesOneConnection(t *testing.T) {
	srv := newCountedServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, r.URL.Query().Get("i"))
	}))
	tr := httpTransport(t, srv.URL)
	for i := range 50 {
		if resp := get(t, tr, fmt.Sprintf("/x?i=%d", i)); string(resp.Body) != fmt.Sprint(i) {
			t.Fatalf("call %d: body %q", i, resp.Body)
		}
	}
	if n := srv.opened.Load(); n != 1 {
		t.Fatalf("50 sequential calls opened %d connections, want 1", n)
	}
}

func TestHTTPTransportRepliesByteForByte(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KB
	srv := newCountedServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/chunked":
			w.Write(big[:1000])
			w.(http.Flusher).Flush() // no Content-Length from here on
			w.Write(big[1000:])
		case "/misdirected":
			w.WriteHeader(http.StatusMisdirectedRequest)
			fmt.Fprint(w, `{"owner_shard":2}`)
		}
	}))
	tr := httpTransport(t, srv.URL)
	for range 2 { // the second round runs on the pooled connection
		if resp := get(t, tr, "/chunked"); resp.Status != http.StatusOK || !bytes.Equal(resp.Body, big) {
			t.Fatalf("chunked: status %d, %d bytes, want 200 and the 64 KB body", resp.Status, len(resp.Body))
		}
		if resp := get(t, tr, "/misdirected"); resp.Status != http.StatusMisdirectedRequest || string(resp.Body) != `{"owner_shard":2}` {
			t.Fatalf("421: status %d, body %q", resp.Status, resp.Body)
		}
	}
	if n := srv.opened.Load(); n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

func TestHTTPTransportDeadline(t *testing.T) {
	srv := newCountedServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/block" {
			select {
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
		}
		fmt.Fprint(w, "ok")
	}))
	tr := httpTransport(t, srv.URL)
	get(t, tr, "/warm") // the blocked call runs on a pooled connection
	const attempt = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(t.Context(), attempt)
	defer cancel()
	t0 := time.Now()
	_, err := tr.Do(ctx, 0, http.MethodGet, "/block", nil)
	if elapsed := time.Since(t0); !errors.Is(err, context.DeadlineExceeded) || elapsed > attempt+50*time.Millisecond {
		t.Fatalf("blocked call returned %v after %v, want %v within %v", err, elapsed, context.DeadlineExceeded, attempt+50*time.Millisecond)
	}
	if resp := get(t, tr, "/after"); string(resp.Body) != "ok" {
		t.Fatalf("call after the deadline: %q", resp.Body)
	}
	if n := srv.opened.Load(); n != 2 {
		t.Fatalf("%d connections, want 2: the timed-out one is not reused", n)
	}
}

// warmTwo leaves two idle connections in the transport's list: two calls
// whose handler holds both until both have arrived.
func warmTwo(t *testing.T, tr router.Transport, arrived *sync.WaitGroup) {
	t.Helper()
	arrived.Add(2)
	var calls sync.WaitGroup
	for range 2 {
		calls.Add(1)
		go func() {
			defer calls.Done()
			if _, err := tr.Do(t.Context(), 0, http.MethodGet, "/warm", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	calls.Wait()
}

func TestHTTPTransportShardClosedIdleConnections(t *testing.T) {
	var arrived sync.WaitGroup
	var posts sync.Map // body -> *atomic.Int64
	srv := newCountedServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			b, _ := io.ReadAll(r.Body)
			n, _ := posts.LoadOrStore(string(b), new(atomic.Int64))
			n.(*atomic.Int64).Add(1)
		default:
			if r.URL.Path == "/warm" {
				arrived.Done()
				arrived.Wait()
			}
		}
		fmt.Fprint(w, "ok")
	}))
	tr := httpTransport(t, srv.URL)

	t.Run("get", func(t *testing.T) {
		warmTwo(t, tr, &arrived)
		srv.CloseClientConnections()
		for i := range 5 {
			if resp := get(t, tr, "/after"); string(resp.Body) != "ok" {
				t.Fatalf("GET %d after the shard closed its connections: %q", i, resp.Body)
			}
		}
	})
	t.Run("post", func(t *testing.T) {
		warmTwo(t, tr, &arrived)
		srv.CloseClientConnections()
		// The first POST may fail on a closed connection; it is never
		// sent twice, and the other closed connection goes with it.
		_, _ = tr.Do(t.Context(), 0, http.MethodPost, "/post", []byte("first"))
		if _, err := tr.Do(t.Context(), 0, http.MethodPost, "/post", []byte("second")); err != nil {
			t.Fatalf("second POST after the shard closed its connections: %v", err)
		}
		reached := func(body string) int64 {
			if n, ok := posts.Load(body); ok {
				return n.(*atomic.Int64).Load()
			}
			return 0
		}
		if first, second := reached("first"), reached("second"); first > 1 || second != 1 {
			t.Fatalf("the two POSTs reached the handler %d and %d times, want ≤ 1 and 1", first, second)
		}
	})
}

// TestHTTPTransportCloseIdleConnections: the shard sees both pooled
// connections closed with no collection to run a finalizer (the transport
// is still reachable), and the transport dials afresh on its next call.
func TestHTTPTransportCloseIdleConnections(t *testing.T) {
	var arrived sync.WaitGroup
	srv := newCountedServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/warm" {
			arrived.Done()
			arrived.Wait()
		}
		fmt.Fprint(w, "ok")
	}))
	tr := httpTransport(t, srv.URL)
	warmTwo(t, tr, &arrived)
	if n := srv.opened.Load(); n != 2 {
		t.Fatalf("%d connections warmed, want 2", n)
	}
	tr.CloseIdleConnections()
	waitFor(t, "the shard to see both idle connections closed", func() bool { return srv.closed.Load() == 2 })
	if resp := get(t, tr, "/after"); string(resp.Body) != "ok" {
		t.Fatalf("GET after CloseIdleConnections: %q", resp.Body)
	}
	if n := srv.opened.Load(); n != 3 {
		t.Fatalf("%d connections, want 3: the two closed and one new", n)
	}
}

func TestHTTPTransportConnectionClose(t *testing.T) {
	srv := newCountedServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/last" {
			w.Header().Set("Connection", "close")
		}
		fmt.Fprint(w, r.URL.Path)
	}))
	tr := httpTransport(t, srv.URL)
	if resp := get(t, tr, "/last"); resp.Status != http.StatusOK || string(resp.Body) != "/last" {
		t.Fatalf("Connection: close reply: %d %q", resp.Status, resp.Body)
	}
	// A POST is not sent twice, so had the closed connection been pooled,
	// this one would fail on it.
	resp, err := tr.Do(t.Context(), 0, http.MethodPost, "/next", []byte("{}"))
	if err != nil {
		t.Fatalf("POST after a Connection: close reply: %v", err)
	}
	if string(resp.Body) != "/next" {
		t.Fatalf("POST after a Connection: close reply: body %q", resp.Body)
	}
	if n := srv.opened.Load(); n != 2 {
		t.Fatalf("%d connections, want 2", n)
	}
}

func TestHTTPTransportPathPrefix(t *testing.T) {
	srv := newCountedServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, r.Host, " ", r.URL.RequestURI())
	}))
	host := strings.TrimPrefix(srv.URL, "http://")
	for _, base := range []string{srv.URL + "/fleet/a", srv.URL + "/fleet/a/"} {
		tr := httpTransport(t, base)
		if resp := get(t, tr, "/v1/edge?u=1&v=2"); string(resp.Body) != host+" /fleet/a/v1/edge?u=1&v=2" {
			t.Fatalf("base %s: the shard saw %q", base, resp.Body)
		}
	}
}

func TestHTTPTransportConcurrentCallers(t *testing.T) {
	srv := newCountedServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			io.Copy(w, r.Body)
			return
		}
		fmt.Fprint(w, r.URL.Query().Get("q"))
	}))
	tr := httpTransport(t, srv.URL)
	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				want := fmt.Sprintf("%d-%d", g, i)
				method, path, body := http.MethodGet, "/?q="+want, []byte(nil)
				if i%2 == 1 {
					method, path, body = http.MethodPost, "/", []byte(want)
				}
				resp, err := tr.Do(t.Context(), 0, method, path, body)
				if err != nil {
					t.Errorf("%s %s: %v", method, want, err)
					return
				}
				if string(resp.Body) != want {
					t.Errorf("%s %s: body %q", method, want, resp.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestNewRefusesBadBaseURL(t *testing.T) {
	for _, base := range []string{"localhost:8081", "http://", "ftp://h:1", "https://h:1"} {
		tr := httpTransport(t, "http://127.0.0.1:1", base)
		_, err := router.New(router.Config{Shards: 2, Transport: tr, Logger: quiet})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", base)) {
			t.Errorf("New with base URL %q: %v, want an error naming it", base, err)
		}
		if _, err := tr.Do(t.Context(), 0, http.MethodGet, "/readyz", nil); err == nil {
			t.Errorf("Do with base URL %q succeeded", base)
		}
	}
}

// TestHedgeOverTheWire stalls the owning shard's first request past
// HedgeMax: the hedge's reply is the router's, at once, hedge_wins is 1,
// and the straggler's connection is closed, not pooled. The stalled
// request is the one on a connection warmed before the router's read, so
// the primary, which takes that idle connection, is the one that stalls
// however the two requests are scheduled; the hedge dials its own.
func TestHedgeOverTheWire(t *testing.T) {
	f := fleet(t)
	e := f.pickEdges()[0]
	owner := f.ring.OwnerEdge(e.U, e.V)
	var stalled atomic.Bool
	var warm atomic.Value // the client address of the warmed connection
	urls := make([]string, len(f.shards))
	var straggler *countedServer
	for i, h := range f.shards {
		if i == owner {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.URL.Path == "/readyz":
					warm.Store(r.RemoteAddr)
				case r.RemoteAddr == warm.Load() && stalled.CompareAndSwap(false, true):
					<-r.Context().Done() // until the router drops the connection
					return
				}
				f.shards[owner].ServeHTTP(w, r)
			})
		}
		srv := newCountedServer(t, h)
		if i == owner {
			straggler = srv
		}
		urls[i] = srv.URL
	}
	tr := httpTransport(t, urls...)
	if _, err := tr.Do(t.Context(), owner, http.MethodGet, "/readyz", nil); err != nil {
		t.Fatal(err)
	}
	h := newTestRouter(t, tr, nil).Handler()
	path := fmt.Sprintf("/v1/edge?u=%d&v=%d", e.U, e.V)
	want := do(f.control, http.MethodGet, path, nil)
	t0 := time.Now()
	got := do(h, http.MethodGet, path, nil)
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("router %d %q, control %d %q", got.Code, got.Body, want.Code, want.Body)
	}
	// The hedge's win cancels the straggler at once, well before its
	// attempt deadline (250 ms).
	if elapsed := time.Since(t0); elapsed > 150*time.Millisecond {
		t.Fatalf("the hedged read took %v", elapsed)
	}
	var doc struct {
		Shards []struct {
			Hedges    int64 `json:"hedges"`
			HedgeWins int64 `json:"hedge_wins"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(do(h, http.MethodGet, "/v1/stats", nil).Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if s := doc.Shards[owner]; s.Hedges != 1 || s.HedgeWins != 1 {
		t.Fatalf("shard %d: %d hedges, %d hedge wins, want 1 and 1", owner, s.Hedges, s.HedgeWins)
	}
	// The hedge's connection stays pooled while the transport lives: once
	// it is unreachable, a collection closes it through the net.Conn
	// finalizer, and this count would read 2.
	runtime.GC()
	waitFor(t, "the straggler's connection to close", func() bool { return straggler.closed.Load() == 1 })
	runtime.KeepAlive(tr)
	if n := straggler.opened.Load(); n != 2 {
		t.Fatalf("%d connections to the owner, want 2: the straggler's and the hedge's", n)
	}
}

// TestCancelledRequestEndsItsRPC has the client go away while the owner
// holds its read, on a pooled connection (a dial would watch the request
// from the start): the router's RPC ends well before its attempt deadline
// (250 ms), since from the hedge delay on the attempt watches the
// request, and no hedge is sent for a request that has ended.
func TestCancelledRequestEndsItsRPC(t *testing.T) {
	f := fleet(t)
	e := f.pickEdges()[0]
	owner := f.ring.OwnerEdge(e.U, e.V)
	arrived := make(chan struct{}, 2)
	urls := make([]string, len(f.shards))
	for i, h := range f.shards {
		if i == owner {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/readyz" {
					f.shards[owner].ServeHTTP(w, r)
					return
				}
				arrived <- struct{}{}
				<-r.Context().Done() // until the router drops the connection
			})
		}
		urls[i] = newCountedServer(t, h).URL
	}
	tr := httpTransport(t, urls...)
	if _, err := tr.Do(t.Context(), owner, http.MethodGet, "/readyz", nil); err != nil {
		t.Fatal(err)
	}
	h := newTestRouter(t, tr, nil).Handler()
	ctx, cancel := context.WithCancel(t.Context())
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/edge?u=%d&v=%d", e.U, e.V), nil).WithContext(ctx)
	done := make(chan time.Duration)
	go func() {
		t0 := time.Now()
		h.ServeHTTP(httptest.NewRecorder(), req)
		done <- time.Since(t0)
	}()
	<-arrived
	cancel()
	if elapsed := <-done; elapsed > 200*time.Millisecond {
		t.Fatalf("the cancelled read took %v, want its RPC ended before the attempt deadline", elapsed)
	}
	var doc struct {
		Shards []struct {
			Hedges int64 `json:"hedges"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(do(h, http.MethodGet, "/v1/stats", nil).Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if n := doc.Shards[owner].Hedges; n != 0 {
		t.Fatalf("%d hedges for a request that had ended, want 0", n)
	}
}
