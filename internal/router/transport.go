package router

// Transport is the router's only path to a shard — one interface method
// for one HTTP exchange. Everything above it (retries, hedging,
// breakers, scatter-gather) is pure logic over this seam, which is what
// makes the fault matrix possible: FaultTransport wraps any inner
// Transport and injects a deterministic drop/delay/error/kill at the
// nth RPC, the network sibling of wal.MemFS.FailAfter.
//
// Two real implementations ship: HTTPTransport speaks HTTP/1.1 to a fleet
// on its own keep-alive connections (cmd/locec-router), HandlerTransport
// calls in-process http.Handlers directly (tests, single-binary demos).

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Response is a shard's reply, fully buffered. Header is limited to what
// the router forwards or inspects.
type Response struct {
	Status int
	Body   []byte
}

// Transport executes one HTTP exchange against shard i. Implementations
// must honor ctx cancellation — the router's deadlines, hedging and
// fault tolerance all assume a Do call returns promptly once ctx is
// done. A non-nil error means the exchange failed (network/timeout); an
// HTTP error status is a successful exchange with a non-2xx Response.
type Transport interface {
	Do(ctx context.Context, shard int, method, path string, body []byte) (*Response, error)
}

// maxIdlePerShard is how many idle keep-alive connections HTTPTransport
// keeps per shard: net/http's DefaultMaxIdleConnsPerHost.
const maxIdlePerShard = 2

// HTTPTransport reaches shards over the network at fixed base URLs. Each
// exchange is written and read on the calling goroutine, over a LIFO list
// per shard of at most maxIdlePerShard idle keep-alive connections.
type HTTPTransport struct {
	// BaseURLs[i] is shard i's root, http://host[:port][/prefix], e.g.
	// "http://10.0.0.5:8080"; New and Do refuse any other form.
	BaseURLs []string

	once   sync.Once
	shards []shardConns // BaseURLs parsed
	err    error        // the first bad entry of BaseURLs
	mu     sync.Mutex   // guards every shardConns.idle
}

type shardConns struct {
	addr, host, prefix string // dialled host:port, Host header, path prefix
	idle               []*conn
}

type conn struct {
	net.Conn
	rd *bufio.Reader
	wr *bufio.Writer
}

// parse reads BaseURLs once; every later call returns the same error.
func (t *HTTPTransport) parse() error {
	t.once.Do(func() {
		t.shards = make([]shardConns, len(t.BaseURLs))
		for i, raw := range t.BaseURLs {
			u, err := url.Parse(raw)
			if err != nil || u.Scheme != "http" || u.Host == "" || u.User != nil || u.RawQuery != "" || u.Fragment != "" {
				t.err = fmt.Errorf("router: shard %d base URL %q: want http://host[:port][/prefix]", i, raw)
				return
			}
			s := &t.shards[i]
			s.addr, s.host, s.prefix = u.Host, u.Host, strings.TrimRight(u.EscapedPath(), "/")
			if u.Port() == "" {
				s.addr = net.JoinHostPort(u.Hostname(), "80")
			}
		}
	})
	return t.err
}

// Do runs one exchange on the shard's most recently used idle connection,
// or a new one. When ctx ends (cancel or deadline) the connection's
// deadline moves into the past; a failed exchange closes its connection.
func (t *HTTPTransport) Do(ctx context.Context, shard int, method, path string, body []byte) (*Response, error) {
	if err := t.parse(); err != nil {
		return nil, err
	}
	if shard < 0 || shard >= len(t.shards) {
		return nil, fmt.Errorf("router: shard %d out of range (%d base URLs)", shard, len(t.BaseURLs))
	}
	s := &t.shards[shard]
	for {
		c := t.take(s)
		reused := c != nil
		if !reused {
			nc, err := new(net.Dialer).DialContext(ctx, "tcp", s.addr)
			if err != nil {
				return nil, ctxErr(ctx, err)
			}
			c = &conn{Conn: nc, rd: bufio.NewReader(nc), wr: bufio.NewWriter(nc)}
		}
		stop := context.AfterFunc(ctx, func() { _ = c.SetDeadline(time.Unix(1, 0)) })
		err := c.writeRequest(s, method, path, body)
		wrote := err == nil
		if wrote {
			_, err = c.rd.Peek(1)
		}
		replied := wrote && err == nil
		var resp *Response
		keep := false
		if replied {
			resp, keep, err = c.readResponse()
		}
		if !stop() && err == nil {
			err = ctx.Err() // the deadline is in the past: the conn is spent
		}
		if err == nil && keep && t.put(s, c) {
			return resp, nil
		}
		_ = c.Close()
		if err == nil {
			return resp, nil
		}
		// A reused connection failing before any reply byte was closed by
		// the shard, as its other idle ones likely were. net/http's replay
		// rule: only a GET or a request never written goes once more.
		if reused && !replied && ctx.Err() == nil {
			for c := t.take(s); c != nil; c = t.take(s) {
				_ = c.Close()
			}
			if !wrote || method == http.MethodGet {
				continue
			}
		}
		return nil, ctxErr(ctx, err)
	}
}

// ctxErr reports a failed exchange as ctx's error once ctx has ended.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// writeRequest writes the request line, Host and, with a body, its type
// and length, then flushes; a bufio.Writer keeps its first error for Flush.
func (c *conn) writeRequest(s *shardConns, method, path string, body []byte) error {
	b := append(c.wr.AvailableBuffer(), method...)
	b = append(append(b, ' '), s.prefix...)
	b = append(append(b, path...), " HTTP/1.1\r\nHost: "...)
	b = append(b, s.host...)
	if body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	_, _ = c.wr.Write(append(b, "\r\n\r\n"...))
	_, _ = c.wr.Write(body)
	return c.wr.Flush()
}

// readResponse reads one reply; keep: the connection may carry another.
func (c *conn) readResponse() (resp *Response, keep bool, err error) {
	hr, err := http.ReadResponse(c.rd, nil)
	if err != nil {
		return nil, false, err
	}
	var data []byte
	if n := hr.ContentLength; n >= 0 && n <= maxBody { // a longer claim earns no up-front buffer
		data = make([]byte, n)
		_, err = io.ReadFull(hr.Body, data)
	} else {
		data, err = io.ReadAll(hr.Body)
	}
	return &Response{Status: hr.StatusCode, Body: data}, !hr.Close && c.rd.Buffered() == 0, err
}

// take pops the shard's most recently used idle connection, or nil.
func (t *HTTPTransport) take(s *shardConns) (c *conn) {
	t.mu.Lock()
	if n := len(s.idle); n > 0 {
		c, s.idle[n-1], s.idle = s.idle[n-1], nil, s.idle[:n-1]
	}
	t.mu.Unlock()
	return c
}

// put pools a connection unless the shard's list is full.
func (t *HTTPTransport) put(s *shardConns, c *conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(s.idle) == maxIdlePerShard {
		return false
	}
	s.idle = append(s.idle, c)
	return true
}

// HandlerTransport calls in-process handlers — shard i is Handlers[i].
// The handler runs synchronously on the caller's goroutine with the
// request context attached, so a ctx-respecting handler (and the
// fault-injection wrapper) behaves exactly as over a real network, minus
// the wire.
type HandlerTransport struct {
	Handlers []http.Handler
}

func (t *HandlerTransport) Do(ctx context.Context, shard int, method, path string, body []byte) (*Response, error) {
	if shard < 0 || shard >= len(t.Handlers) {
		return nil, fmt.Errorf("router: shard %d out of range (%d handlers)", shard, len(t.Handlers))
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd).WithContext(ctx)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	t.Handlers[shard].ServeHTTP(rec, req)
	if err := ctx.Err(); err != nil {
		// The handler returned because the context died mid-request (the
		// serve layer's classify loop does this); surface it as the
		// network failure it would be on the wire.
		return nil, err
	}
	return &Response{Status: rec.Code, Body: rec.Body.Bytes()}, nil
}

// Fault modes for FaultTransport.
const (
	// FaultError fails the RPC instantly with an injected error — a
	// connection reset.
	FaultError = "error"
	// FaultDrop blackholes the RPC: it blocks until the caller's context
	// expires — a dropped packet, a hung peer.
	FaultDrop = "drop"
	// FaultDelay stalls the RPC for Delay, then lets it through — a slow
	// network, a GC pause. Observable only through hedging/timeouts.
	FaultDelay = "delay"
	// FaultKill fails the RPC instantly and marks the target shard dead:
	// every later RPC to it fails too — a crashed process.
	FaultKill = "kill"
)

// errInjected is the error surfaced by FaultError/FaultKill.
var errInjected = fmt.Errorf("router: injected fault")

// FaultTransport wraps an inner Transport and deterministically injects
// one fault at the Nth RPC (1-based, counted across all shards in call
// order). It is the network sibling of wal.MemFS.FailAfter: because the
// fault point is an RPC ordinal, not a timer, a test can walk every
// boundary of a request's RPC graph and assert the router's observable
// behavior at each one.
type FaultTransport struct {
	Inner Transport
	// Mode is one of the Fault* constants ("" injects nothing).
	Mode string
	// N is the 1-based RPC ordinal at which the fault fires.
	N int64
	// Delay is the stall duration for FaultDelay.
	Delay time.Duration

	calls  atomic.Int64
	killed sync.Map // shard int -> struct{}
}

// Calls returns how many RPCs have been issued through this transport.
func (t *FaultTransport) Calls() int64 { return t.calls.Load() }

// Revive clears a shard's killed state — the process was restarted.
func (t *FaultTransport) Revive(shard int) { t.killed.Delete(shard) }

// Kill marks a shard dead immediately, independent of the ordinal
// schedule — for tests that manage shard lifecycle directly.
func (t *FaultTransport) Kill(shard int) { t.killed.Store(shard, struct{}{}) }

func (t *FaultTransport) Do(ctx context.Context, shard int, method, path string, body []byte) (*Response, error) {
	n := t.calls.Add(1)
	if _, dead := t.killed.Load(shard); dead {
		return nil, fmt.Errorf("%w: shard %d is dead", errInjected, shard)
	}
	if t.Mode != "" && n == t.N {
		switch t.Mode {
		case FaultError:
			return nil, errInjected
		case FaultDrop:
			<-ctx.Done()
			return nil, ctx.Err()
		case FaultDelay:
			select {
			case <-time.After(t.Delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		case FaultKill:
			t.killed.Store(shard, struct{}{})
			return nil, fmt.Errorf("%w: shard %d killed", errInjected, shard)
		default:
			return nil, fmt.Errorf("router: unknown fault mode %q", t.Mode)
		}
	}
	return t.Inner.Do(ctx, shard, method, path, body)
}
