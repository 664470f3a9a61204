package router

// Transport is the router's only path to a shard, one method for one
// HTTP exchange; retries, hedging, breakers and scatter-gather are logic
// above it. HTTPTransport speaks HTTP/1.1 to a fleet on its own keep-alive
// connections (cmd/locec-router), HandlerTransport calls in-process
// handlers (tests, single-binary demos), and FaultTransport wraps either
// to inject a deterministic fault at the nth RPC, the network sibling of
// wal.MemFS.FailAfter that the fault matrix walks.

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Response is a shard's reply, fully buffered.
type Response struct {
	Status int
	Body   []byte
}

// Transport executes one HTTP exchange against shard i. Implementations
// must honor ctx cancellation — the router's deadlines, hedging and
// fault tolerance all assume a Do call returns promptly once ctx is
// done. A non-nil error means the exchange failed (network/timeout); an
// HTTP error status is a successful exchange with a non-2xx Response.
// Do keeps no hold of ctx once it returns: the router reuses its attempts.
type Transport interface {
	Do(ctx context.Context, shard int, method, path string, body []byte) (*Response, error)
}

// attempt is the context of one RPC: its parent's values, a deadline (the
// earlier of its own and the parent's) and an end. It costs no goroutine,
// channel or timer until someone asks for Done. HTTPTransport binds its
// connection instead, whose deadline is the attempt's and which ending
// the attempt moves into the past. The connection's deadline is the only
// timer, and Err reads context.DeadlineExceeded from the clock once the
// deadline has passed, so no second timer can lose the race that once
// reported a deadline as an "i/o timeout". The parent's deadline binds
// from the start; its cancellation ends the attempt once the parent is
// watched: from the first Done, or from the router's hedge delay on.
type attempt struct {
	parent    context.Context
	deadline  time.Time // zero: none
	mu        sync.Mutex
	err       error         // how the attempt ended, nil while it runs
	conn      net.Conn      // the exchange in flight, which end cuts off
	done      chan struct{} // made by the first Done
	stopWatch func() bool   // set once the parent is watched
}

func (a *attempt) start(parent context.Context, timeout time.Duration) {
	a.parent, a.deadline = parent, time.Now().Add(timeout)
	if d, ok := parent.Deadline(); ok && d.Before(a.deadline) {
		a.deadline = d
	}
}

func (a *attempt) Deadline() (time.Time, bool) { return a.deadline, !a.deadline.IsZero() }
func (a *attempt) Value(key any) any           { return a.parent.Value(key) }

func (a *attempt) Err() error {
	if err := a.parent.Err(); err != nil {
		a.end(err)
	} else if !a.deadline.IsZero() && !time.Now().Before(a.deadline) {
		a.end(context.DeadlineExceeded)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

func (a *attempt) Done() <-chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.done == nil {
		if a.done = make(chan struct{}); a.err != nil {
			close(a.done)
		}
		if !a.deadline.IsZero() {
			time.AfterFunc(time.Until(a.deadline), func() { a.end(context.DeadlineExceeded) })
		}
		a.watchLocked()
	}
	return a.done
}

// end ends the attempt with err, unless it has ended.
func (a *attempt) end(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err == nil {
		a.err = err
		a.setDeadline()
		if a.done != nil {
			close(a.done)
		}
	}
}

// watchLocked makes the parent's end the attempt's from here on.
func (a *attempt) watchLocked() {
	if a.stopWatch == nil {
		a.stopWatch = context.AfterFunc(a.parent, func() { a.end(a.parent.Err()) })
	}
}

// bind makes c (nil: none) the connection that ending the attempt cuts
// off, and returns how the attempt ended, if it has.
func (a *attempt) bind(c net.Conn) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.conn = c
	a.setDeadline()
	return a.err
}

// setDeadline puts the deadline, or the past, on the bound connection.
func (a *attempt) setDeadline() {
	if d := a.deadline; a.conn != nil {
		if a.err != nil {
			d = time.Unix(1, 0)
		}
		_ = a.conn.SetDeadline(d)
	}
}

// maxIdlePerShard is how many idle keep-alive connections HTTPTransport
// keeps per shard: net/http's DefaultMaxIdleConnsPerHost.
const maxIdlePerShard = 2

// HTTPTransport reaches shards at fixed base URLs. Each exchange is
// written and read on the calling goroutine, over a LIFO list per shard
// of at most maxIdlePerShard idle keep-alive connections.
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
	rd  *bufio.Reader
	wr  *bufio.Writer
	buf []byte // readAll's buffer, kept across replies
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
// or a new one, under the attempt's deadline; ending the attempt moves it
// into the past. A caller's own ctx becomes an attempt watched from the
// start. A failed exchange closes its connection.
func (t *HTTPTransport) Do(ctx context.Context, shard int, method, path string, body []byte) (*Response, error) {
	if err := t.parse(); err != nil {
		return nil, err
	}
	if shard < 0 || shard >= len(t.shards) {
		return nil, fmt.Errorf("router: shard %d out of range (%d base URLs)", shard, len(t.BaseURLs))
	}
	a, ok := ctx.(*attempt)
	if !ok {
		a = &attempt{parent: ctx}
		a.deadline, _ = ctx.Deadline()
		a.watchLocked() // a is not shared yet
		defer a.stopWatch()
	}
	s := &t.shards[shard]
	for {
		c := t.take(s)
		reused := c != nil
		if !reused {
			nc, err := new(net.Dialer).DialContext(ctx, "tcp", s.addr)
			if err != nil {
				return nil, cmp.Or(a.Err(), err) // the attempt's end, if it has ended
			}
			c = &conn{Conn: nc, rd: bufio.NewReader(nc), wr: bufio.NewWriter(nc)}
		}
		_ = a.bind(c)
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
		if aerr := a.bind(nil); aerr != nil && err == nil {
			err = aerr // the deadline is in the past: the conn is spent
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
		if reused && !replied && a.Err() == nil {
			for c := t.take(s); c != nil; c = t.take(s) {
				_ = c.Close()
			}
			if !wrote || method == http.MethodGet {
				continue
			}
		}
		return nil, cmp.Or(a.Err(), err)
	}
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
// Of the header it keeps Content-Length, Transfer-Encoding: chunked and
// Connection, and it refuses what it does not need instead of reading it:
// versions other than HTTP/1.0 and 1.1, folded or bare-LF lines, a
// repeated length, a length beside chunking, a Trailer naming a framing
// field. Bodies and keep-alive follow net/http: 1xx, 204 and 304 have
// none; neither length nor chunking runs to EOF and closes; HTTP/1.0
// closes unless it says keep-alive.
func (c *conn) readResponse() (resp *Response, keep bool, err error) {
	line, err := c.rd.ReadSlice('\n')
	if err != nil {
		return nil, false, unexpectedEOF(err)
	}
	status, http10, ok := parseStatusLine(line)
	if !ok {
		return nil, false, fmt.Errorf("router: malformed status line %q", line)
	}
	h := replyHeader{length: -1}
	if err := readHeader(c.rd, &h, http10); err != nil {
		return nil, false, err
	}
	keep = !h.close && (!http10 || h.keepAlive)
	var data []byte
	switch {
	case status/100 == 1 || status == http.StatusNoContent || status == http.StatusNotModified:
	case h.chunked:
		if data, err = c.readAll(httputil.NewChunkedReader(c.rd)); err == nil {
			err = readHeader(c.rd, nil, false) // the trailer
		}
	case h.length > maxBody: // a longer claim earns no up-front buffer
		data, err = io.ReadAll(io.LimitReader(c.rd, h.length))
		if err == nil && int64(len(data)) < h.length {
			err = io.ErrUnexpectedEOF
		}
	case h.length > 0:
		data = make([]byte, h.length)
		_, err = io.ReadFull(c.rd, data)
	case h.length < 0: // the body ends with the connection
		keep = false
		data, err = c.readAll(c.rd)
	}
	return &Response{Status: status, Body: data}, keep && c.rd.Buffered() == 0, err
}

// replyHeader is what readResponse keeps of a reply's header.
type replyHeader struct {
	length           int64 // Content-Length, -1 when absent
	chunked          bool
	close, keepAlive bool // Connection tokens
}

// field takes in one header line.
func (h *replyHeader) field(name, value []byte, http10 bool) error {
	switch {
	case asciiEqualFold(name, "Content-Length"):
		n, ok := parseLength(value)
		if !ok || h.length >= 0 || h.chunked {
			return fmt.Errorf("router: bad or repeated Content-Length %q", value)
		}
		h.length = n
	case asciiEqualFold(name, "Transfer-Encoding"):
		if http10 || h.chunked || h.length >= 0 || !asciiEqualFold(value, "chunked") {
			return fmt.Errorf("router: unsupported Transfer-Encoding %q", value)
		}
		h.chunked = true
	case asciiEqualFold(name, "Connection"):
		for rest := value; len(rest) > 0; {
			var tok []byte
			tok, rest, _ = bytes.Cut(rest, comma)
			tok = bytes.Trim(tok, " \t")
			h.close = h.close || asciiEqualFold(tok, "close")
			h.keepAlive = h.keepAlive || asciiEqualFold(tok, "keep-alive")
		}
	case asciiEqualFold(name, "Trailer"):
		for rest := value; len(rest) > 0; {
			var key []byte
			key, rest, _ = bytes.Cut(rest, comma)
			key = bytes.Trim(key, " \t")
			if asciiEqualFold(key, "Content-Length") || asciiEqualFold(key, "Transfer-Encoding") || asciiEqualFold(key, "Trailer") {
				return fmt.Errorf("router: bad trailer key %q", key)
			}
		}
	}
	return nil
}

// parseStatusLine reads "HTTP/1.x NNN[ reason]\r\n".
func parseStatusLine(line []byte) (status int, http10, ok bool) {
	if len(line) < len("HTTP/1.x NNN\r\n") || string(line[:7]) != "HTTP/1." || line[8] != ' ' ||
		(line[7] != '0' && line[7] != '1') || !bytes.HasSuffix(line, crlf) {
		return 0, false, false
	}
	for _, d := range line[9:12] {
		if d < '0' || d > '9' {
			return 0, false, false
		}
		status = status*10 + int(d-'0')
	}
	if rest := line[12:]; len(rest) > 2 && rest[0] != ' ' {
		return 0, false, false
	}
	return status, line[7] == '0', true
}

var crlf = []byte("\r\n")

// readHeader reads header lines up to the blank line that ends them into
// h, or, with h nil (a chunked body's trailer), only checks them. A line
// that does not end in CRLF, whose name is not a token, or whose value
// holds a control byte other than tab is an error; so is a folded line,
// whose name starts with a blank.
func readHeader(rd *bufio.Reader, h *replyHeader, http10 bool) error {
	for {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			return unexpectedEOF(err)
		}
		line, ok := bytes.CutSuffix(line, crlf)
		if !ok {
			return fmt.Errorf("router: header line %q does not end in CRLF", line)
		}
		if len(line) == 0 {
			return nil
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok || len(name) == 0 || bytes.ContainsFunc(name, func(r rune) bool { return !isTokenRune(r) }) ||
			bytes.ContainsFunc(value, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }) {
			return fmt.Errorf("router: malformed header line %q", line)
		}
		if h != nil {
			if err := h.field(name, bytes.Trim(value, " \t"), http10); err != nil {
				return err
			}
		}
	}
}

// isTokenRune reports whether r may appear in a header name (RFC 7230's
// tchar).
func isTokenRune(r rune) bool {
	return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' ||
		strings.ContainsRune("!#$%&'*+-.^_`|~", r)
}

// parseLength reads a Content-Length of at most 18 digits.
func parseLength(b []byte) (n int64, ok bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int64(d-'0')
	}
	return n, true
}

// asciiEqualFold is bytes.EqualFold without Unicode folding.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i, c := range b {
		if lower := c | 0x20; c != s[i] && (lower != s[i]|0x20 || lower < 'a' || lower > 'z') {
			return false
		}
	}
	return true
}

// unexpectedEOF reports a reply cut short as io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readAll reads r to EOF through the connection's own buffer and returns
// a copy of exactly the bytes read: the buffer's growth is paid once per
// connection, not once per reply.
func (c *conn) readAll(r io.Reader) ([]byte, error) {
	b := c.buf[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if cap(b) <= maxBody { // a larger reply's buffer is not kept
		c.buf = b
	}
	return append(make([]byte, 0, len(b)), b...), nil
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

// CloseIdleConnections closes every pooled idle connection, as
// net/http's Transport method of that name does; connections in use are
// left alone and the transport stays usable.
func (t *HTTPTransport) CloseIdleConnections() {
	_ = t.parse() // t.shards is read only after parse has written it
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.shards {
		for _, c := range t.shards[i].idle {
			_ = c.Close()
		}
		t.shards[i].idle = nil
	}
}

// HandlerTransport calls in-process handlers, shard i being Handlers[i],
// on the caller's goroutine with ctx attached: a ctx-respecting handler
// behaves as over a network, minus the wire.
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
	if err := ctx.Err(); err != nil { // the failure it would be on the wire
		return nil, err
	}
	return &Response{Status: rec.Code, Body: rec.Body.Bytes()}, nil
}

// Fault modes for FaultTransport.
const (
	FaultError = "error" // fail at once with an injected error: a connection reset
	FaultDrop  = "drop"  // block until ctx ends: a dropped packet, a hung peer
	FaultDelay = "delay" // stall for Delay, then pass: a slow network, a GC pause
	FaultKill  = "kill"  // fail at once, and every later RPC to the shard: a crash
)

// errInjected is the error surfaced by FaultError/FaultKill.
var errInjected = fmt.Errorf("router: injected fault")

// FaultTransport wraps an inner Transport and injects one fault at the Nth
// RPC (1-based, counted across all shards in call order): an ordinal, not
// a timer, so a test can walk every boundary of a request's RPC graph.
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

// Revive clears a shard's killed state: the process restarted.
func (t *FaultTransport) Revive(shard int) { t.killed.Delete(shard) }

// Kill marks a shard dead now, whatever the ordinal schedule.
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
