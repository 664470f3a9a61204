package router_test

// The router relays shard bytes: its reply reader and its classify splice
// are held to the net/http and encoding/json code they replaced
// (wire_reference_test.go), on real shard replies and under fuzzing, and
// the documents it writes itself are pinned byte for byte.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"locec/internal/router"
	"locec/internal/serve"
)

// shardReply is the raw bytes of one reply a real shard sent.
type shardReply struct {
	name string
	raw  []byte
}

var (
	shardRepliesOnce sync.Once
	shardRepliesList []shardReply
	shardRepliesErr  error
)

// shardReplies captures one reply of every kind a shard sends the router
// off a loopback socket: an edge, a 64-edge classify (chunked), a small
// classify (sized), communities, a 404, a 421, and a booting shard's 503
// from /readyz.
func shardReplies(tb testing.TB) []shardReply {
	tb.Helper()
	f := fleet(tb)
	shardRepliesOnce.Do(func() { shardRepliesList, shardRepliesErr = captureShardReplies(f) })
	if shardRepliesErr != nil {
		tb.Fatal(shardRepliesErr)
	}
	return shardRepliesList
}

func captureShardReplies(f *fleetFixture) ([]shardReply, error) {
	shard := f.shards[0]
	srv := httptest.NewServer(shard)
	defer srv.Close()
	booting := httptest.NewServer(serve.NewBootGate())
	defer booting.Close()

	owned, foreign := edge{}, edge{}
	var batch []edge
	for _, e := range f.edges {
		if f.ring.OwnerEdge(e.U, e.V) == 0 {
			owned = e
			if len(batch) < 64 {
				batch = append(batch, e)
			}
		} else {
			foreign = e
		}
	}
	isEdge := map[edge]bool{}
	for _, e := range f.edges {
		isEdge[e] = true
	}
	nonEdge := edge{}
	for v := uint32(1); ; v++ {
		if e := (edge{0, v}); !isEdge[e] && f.ring.OwnerEdge(0, v) == 0 {
			nonEdge = e
			break
		}
	}
	body := func(es []edge) string {
		var b strings.Builder
		b.WriteString(`{"edges":[`)
		for i, e := range es {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"u":%d,"v":%d}`, e.U, e.V)
		}
		b.WriteString("]}")
		return b.String()
	}
	var out []shardReply
	for _, c := range []struct {
		name, url, method, path, body string
		want                          int
	}{
		{"edge", srv.URL, http.MethodGet, fmt.Sprintf("/v1/edge?u=%d&v=%d", owned.U, owned.V), "", http.StatusOK},
		{"classify-chunked", srv.URL, http.MethodPost, "/v1/classify", body(batch), http.StatusOK},
		{"classify-sized", srv.URL, http.MethodPost, "/v1/classify", body(batch[:1]), http.StatusOK},
		{"communities", srv.URL, http.MethodGet, "/v1/communities/0", "", http.StatusOK},
		{"404", srv.URL, http.MethodGet, fmt.Sprintf("/v1/edge?u=%d&v=%d", nonEdge.U, nonEdge.V), "", http.StatusNotFound},
		{"421", srv.URL, http.MethodGet, fmt.Sprintf("/v1/edge?u=%d&v=%d", foreign.U, foreign.V), "", http.StatusMisdirectedRequest},
		{"503", booting.URL, http.MethodGet, "/readyz", "", http.StatusServiceUnavailable},
	} {
		raw, status, err := rawExchange(c.url, c.method, c.path, c.body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		if status != c.want {
			return nil, fmt.Errorf("%s: status %d, want %d: %q", c.name, status, c.want, raw)
		}
		out = append(out, shardReply{c.name, raw})
	}
	if !bytes.Contains(out[1].raw, []byte("Transfer-Encoding: chunked\r\n")) {
		return nil, fmt.Errorf("the 64-edge classify reply is not chunked: %q", out[1].raw)
	}
	return out, nil
}

// rawExchange sends one request on a new keep-alive connection and
// returns the reply's bytes as they came off the socket, cut where
// http.ReadResponse and a full body read end.
func rawExchange(baseURL, method, path, body string) (raw []byte, status int, err error) {
	c, err := net.Dial("tcp", strings.TrimPrefix(baseURL, "http://"))
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	req := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: shard\r\n", method, path)
	if body != "" {
		req += fmt.Sprintf("Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	if _, err := io.WriteString(c, req+"\r\n"+body); err != nil {
		return nil, 0, err
	}
	var got bytes.Buffer
	status, _, _, err = referenceReadResponse(bufio.NewReader(io.TeeReader(c, &got)))
	return got.Bytes(), status, err
}

// readBoth reads data with HTTPTransport's reader and with the reference,
// each from a buffer that holds all of it, so that Buffered() is exactly
// what follows the reply on both sides.
func readBoth(data []byte) (resp *router.Response, keep bool, err error, status int, body []byte, wantKeep bool, wantErr error) {
	resp, keep, err = router.ReadResponse(bufio.NewReaderSize(bytes.NewReader(data), len(data)+16))
	status, body, wantKeep, wantErr = referenceReadResponse(bufio.NewReaderSize(bytes.NewReader(data), len(data)+16))
	return
}

func TestReadResponseAcceptsShardReplies(t *testing.T) {
	for _, r := range shardReplies(t) {
		resp, keep, err, status, body, wantKeep, _ := readBoth(r.raw)
		if err != nil {
			t.Fatalf("%s: %v on %q", r.name, err, r.raw)
		}
		if resp.Status != status || !bytes.Equal(resp.Body, body) || !keep || !wantKeep {
			t.Fatalf("%s: status %d, keep %v, body %q; http.ReadResponse: %d, keep %v, body %q",
				r.name, resp.Status, keep, resp.Body, status, wantKeep, body)
		}
	}
}

// FuzzReadResponse: every reply HTTPTransport's reader accepts,
// http.ReadResponse and a full body read accept too, with the same
// status, body and keep-alive decision.
func FuzzReadResponse(f *testing.F) {
	for _, r := range shardReplies(f) {
		f.Add(r.raw)
	}
	for _, s := range []string{
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n3\r\nabc\r\n0\r\nX-Sum: 1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTrailer: Content-Length\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nhi",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nhi",
		"HTTP/1.0 200 OK\r\n\r\nto the end",
		"HTTP/1.1 200 OK\r\n\r\nto the end",
		"HTTP/1.1 204 No Content\r\nContent-Length: 3\r\n\r\nabc",
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 3\r\n\r\n",
		"HTTP/1.1 304 Not Modified\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive, close\r\n\r\nhi",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi and more",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhi",
		"HTTP/1.1 200 OK\r\nX-Folded: a\r\n b\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 2000 OK\r\n\r\n",
		"HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, keep, err, status, body, wantKeep, wantErr := readBoth(data)
		if err != nil {
			return
		}
		if wantErr != nil {
			t.Fatalf("accepted %q (status %d, body %q), http.ReadResponse refuses it: %v", data, resp.Status, resp.Body, wantErr)
		}
		if resp.Status != status || !bytes.Equal(resp.Body, body) || keep != wantKeep {
			t.Fatalf("%q: status %d, keep %v, body %q; http.ReadResponse: %d, keep %v, body %q",
				data, resp.Status, keep, resp.Body, status, wantKeep, body)
		}
	})
}

// FuzzSpliceResults: the splice finds the elements json.Unmarshal finds,
// byte for byte and as many, and errors whenever Unmarshal does.
func FuzzSpliceResults(f *testing.F) {
	for _, r := range shardReplies(f) {
		if strings.HasPrefix(r.name, "classify") {
			if _, body, _, err := referenceReadResponse(bufio.NewReader(bytes.NewReader(r.raw))); err == nil {
				f.Add(body)
			}
		}
	}
	for _, s := range []string{
		`{"results":[1, "a" ,{"x":[1,"]"]} ,null,true,-2.5e3],"version":1}`,
		` {"version":3,"results":[ ]} ` + "\n",
		`{"x":"]}","results":["\"]\\"]}`,
		`{"results":[{"u":1,"v":2,"found":false}],"Results":[]}`,
		`{"results":[1],"results":[2]}`,
		`{"results":[1]}`,
		`{"reſults":[1]}`,
		`{"results":null}`,
		`{"results":{"a":1}}`,
		`{"results":[1]`,
		`[{"results":[1]}]`,
		`null`,
		`{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := router.AppendResults(nil, body)
		want, wantErr := referenceResults(body)
		if wantErr != nil {
			if err == nil {
				t.Fatalf("%q: spliced %d results, json.Unmarshal: %v", body, len(got), wantErr)
			}
			return
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d results, json.Unmarshal finds %d", body, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%q: result %d is %q, json.Unmarshal's %q", body, i, got[i], want[i])
			}
		}
	})
}

// recordingTransport keeps what the router sent each shard's
// /v1/classify and every 200 reply it got back.
type recordingTransport struct {
	router.Transport
	mu      sync.Mutex
	sent    map[int][]byte
	replies map[int][]byte
}

func (t *recordingTransport) Do(ctx context.Context, shard int, method, path string, body []byte) (*router.Response, error) {
	resp, err := t.Transport.Do(ctx, shard, method, path, body)
	if path == "/v1/classify" {
		t.mu.Lock()
		t.sent[shard] = body
		if err == nil && resp.Status == http.StatusOK {
			t.replies[shard] = resp.Body
		}
		t.mu.Unlock()
	}
	return resp, err
}

// TestClassifyReplyMatchesReference: over real shard replies, the router
// sends each shard json.Marshal's bytes for its share of the batch and
// answers with the bytes the decode-and-encode gather wrote, for a
// healthy fleet over handlers and sockets and with one shard dead.
func TestClassifyReplyMatchesReference(t *testing.T) {
	f := fleet(t)
	small, _ := f.classifyBody()
	type classifyEdge struct {
		U uint32 `json:"u"`
		V uint32 `json:"v"`
	}
	marshalBatch := func(es []edge) []byte {
		doc := struct {
			Edges []classifyEdge `json:"edges"`
		}{}
		for _, e := range es {
			doc.Edges = append(doc.Edges, classifyEdge{e.U, e.V})
		}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	large := marshalBatch(f.edges[:64])

	for _, tc := range []struct {
		name string
		tr   func() router.Transport
		dead []int
	}{
		{"handler", func() router.Transport { return &router.HandlerTransport{Handlers: f.shards} }, nil},
		{"http", func() router.Transport { return &router.HTTPTransport{BaseURLs: serveShards(t, f.shards)} }, nil},
		{"one-dead", func() router.Transport {
			ft := &router.FaultTransport{Inner: &router.HandlerTransport{Handlers: f.shards}}
			ft.Kill(1)
			return ft
		}, []int{1}},
	} {
		for _, batch := range [][]byte{small, large} {
			rec := &recordingTransport{Transport: tc.tr(), sent: map[int][]byte{}, replies: map[int][]byte{}}
			got := do(newTestRouter(t, rec, nil).Handler(), http.MethodPost, "/v1/classify", batch)
			if got.Code != http.StatusOK {
				t.Fatalf("%s: classify = %d: %s", tc.name, got.Code, got.Body)
			}
			var req struct{ Edges []edge }
			if err := json.Unmarshal(batch, &req); err != nil {
				t.Fatal(err)
			}
			owner := make([]int, len(req.Edges))
			byShard := map[int][]edge{}
			for i, e := range req.Edges {
				owner[i] = f.ring.OwnerEdge(e.U, e.V)
				byShard[owner[i]] = append(byShard[owner[i]], e)
			}
			var missing []int
			for s := range fleetShards {
				if len(byShard[s]) == 0 {
					continue
				}
				if sent := rec.sent[s]; !bytes.Equal(sent, marshalBatch(byShard[s])) {
					t.Fatalf("%s: shard %d was sent %s, json.Marshal writes %s", tc.name, s, sent, marshalBatch(byShard[s]))
				}
				if _, ok := rec.replies[s]; !ok {
					missing = append(missing, s)
				}
			}
			if !slices.Equal(missing, tc.dead) {
				t.Fatalf("%s: shards %v did not answer, want %v", tc.name, missing, tc.dead)
			}
			want, err := referenceGather(owner, rec.replies, missing)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Body.Bytes(), want) {
				t.Fatalf("%s: the router answered\n%s\nthe reference gather\n%s", tc.name, got.Body, want)
			}
		}
	}
}

// TestClassifyWrongCountIsMissing: a shard whose reply holds one result
// more, or one fewer, than it was sent edges is named in missing_shards
// and its entries are null, whatever of its reply was spliced first.
func TestClassifyWrongCountIsMissing(t *testing.T) {
	f := fleet(t)
	body, edges := f.classifyBody()
	for _, extra := range []int{-1, 1} {
		const bad = 1
		tr := cannedTransport(func(shard int, _ string, sub []byte) (*router.Response, error) {
			var req struct{ Edges []edge }
			if err := json.Unmarshal(sub, &req); err != nil {
				return nil, err
			}
			n := len(req.Edges)
			if shard == bad {
				n += extra
			}
			results := make([]string, n)
			for i := range results {
				results[i] = fmt.Sprintf(`{"shard":%d}`, shard)
			}
			return &router.Response{Status: http.StatusOK, Body: []byte(`{"results":[` + strings.Join(results, ",") + `]}`)}, nil
		})
		rec := do(newTestRouter(t, tr, nil).Handler(), http.MethodPost, "/v1/classify", body)
		var doc struct {
			Missing []int             `json:"missing_shards"`
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("%d extra: %d %s (%v)", extra, rec.Code, rec.Body, err)
		}
		if !slices.Equal(doc.Missing, []int{bad}) {
			t.Fatalf("%d extra: missing_shards %v, want [%d]", extra, doc.Missing, bad)
		}
		for i, e := range edges {
			want := fmt.Sprintf(`{"shard":%d}`, f.ring.OwnerEdge(e.U, e.V))
			if f.ring.OwnerEdge(e.U, e.V) == bad {
				want = "null"
			}
			if string(doc.Results[i]) != want {
				t.Fatalf("%d extra: result %d is %s, want %s", extra, i, doc.Results[i], want)
			}
		}
	}
}

// cannedTransport answers every RPC from a function, no shard behind it.
type cannedTransport func(shard int, path string, body []byte) (*router.Response, error)

func (c cannedTransport) Do(_ context.Context, shard int, _, path string, body []byte) (*router.Response, error) {
	return c(shard, path, body)
}

// TestRouterWireDocs pins the bytes of the documents the router writes
// itself, each the bytes the map it replaced encoded to.
func TestRouterWireDocs(t *testing.T) {
	f := fleet(t)
	var mu sync.Mutex
	sent := map[int]string{}
	tr := cannedTransport(func(shard int, path string, body []byte) (*router.Response, error) {
		switch path {
		case "/v1/mutations":
			mu.Lock()
			sent[shard] = string(body)
			mu.Unlock()
			return &router.Response{Status: http.StatusConflict, Body: []byte(`{"error":"read-only"}` + "\n")}, nil
		}
		return nil, errors.New("down")
	})
	r := newTestRouter(t, tr, func(c *router.Config) { c.BreakerThreshold = 1 })
	h := r.Handler()
	check := func(what string, rec *httptest.ResponseRecorder, code int, want string) {
		t.Helper()
		if rec.Code != code || rec.Body.String() != want {
			t.Fatalf("%s: %d %q, want %d %q", what, rec.Code, rec.Body, code, want)
		}
	}

	check("/healthz", do(h, http.MethodGet, "/healthz", nil), http.StatusOK,
		fmt.Sprintf("{\"shards\":%d,\"status\":\"ok\"}\n", fleetShards))
	check("/readyz", do(h, http.MethodGet, "/readyz", nil), http.StatusOK,
		fmt.Sprintf("{\"open_circuits\":0,\"shards\":%d,\"status\":\"ready\"}\n", fleetShards))

	const mutation = `{"op":"add","u":0,"v":9}`
	rec := do(h, http.MethodPost, "/v1/mutations", []byte(`{"mutations":[ `+mutation+` ],"wait":true}`))
	var owners []int
	for _, s := range []int{f.ring.OwnerNode(0), f.ring.OwnerNode(9)} {
		if !slices.Contains(owners, s) {
			owners = append(owners, s)
		}
	}
	slices.Sort(owners)
	var receipts []string
	for _, s := range owners {
		if sent[s] != `{"mutations":[`+mutation+`],"wait":true}` {
			t.Fatalf("shard %d was sent %q", s, sent[s])
		}
		receipts = append(receipts, fmt.Sprintf(`{"shard":%d,"mutations":1,"status":409,"response":{"error":"read-only"}}`, s))
	}
	check("/v1/mutations", rec, http.StatusMultiStatus, `{"partial":true,"shards":[`+strings.Join(receipts, ",")+"]}\n")

	owner := f.ring.OwnerEdge(0, 9)
	check("/v1/edge", do(h, http.MethodGet, "/v1/edge?u=0&v=9", nil), http.StatusServiceUnavailable,
		fmt.Sprintf("{\"error\":\"shard %d unavailable: down\",\"missing_shards\":[%d]}\n", owner, owner))

	r.ProbeOnce(t.Context())
	check("/readyz", do(h, http.MethodGet, "/readyz", nil), http.StatusServiceUnavailable,
		fmt.Sprintf("{\"open_circuits\":%d,\"shards\":%d,\"status\":\"not ready\"}\n", fleetShards, fleetShards))
}
