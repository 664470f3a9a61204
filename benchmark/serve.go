package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/ring"
	"locec/internal/router"
	"locec/internal/serve"
	"locec/internal/social"
)

// quiet drops the servers' per-request logs; the logging middleware still
// runs, as it does in production.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// listener is one handler served on its own loopback socket.
type listener struct {
	URL  string
	stop func()
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always ErrServerClosed: stop is the only exit
	}()
	return &listener{
		URL: "http://" + ln.Addr().String(),
		stop: func() {
			_ = srv.Close()
			<-done
		},
	}, nil
}

// client is the load generator: one goroutine, one keep-alive connection,
// closed loop. Callers of this service are backends that wait for a reply.
// It writes the request and reads the response on the calling goroutine,
// without http.Transport's reader and writer goroutines: two hand-offs
// between goroutines per request are the server's, none the client's own.
type client struct {
	base string
	conn net.Conn
	rd   *bufio.Reader
	buf  bytes.Buffer
}

func newClient(base string) *client { return &client{base: base} }

func (c *client) close() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}

// do sends one request and reads the whole reply. The latency runs from
// before the request is written until the body has been read; the returned
// body is valid until the next call. The connection is dialled on first
// use and dropped on any error, so the next call starts clean.
func (c *client) do(method, path string, body []byte) (status int, reply []byte, latency time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.conn == nil {
		if c.conn, err = net.Dial("tcp", req.URL.Host); err != nil {
			return 0, nil, 0, err
		}
		c.rd = bufio.NewReader(c.conn)
	}
	t0 := time.Now()
	err = req.Write(c.conn)
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(c.rd, req)
	}
	if err != nil {
		c.close()
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	latency = time.Since(t0)
	_ = resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, c.buf.Bytes(), latency, err
}

// awaitReady polls /readyz until it answers 200.
func (c *client) awaitReady() error {
	for range 200 {
		if status, _, _, err := c.do("GET", "/readyz", nil); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s never became ready", c.base)
}

// system is a running deployment under test: what the client connects to,
// plus handles the traced run needs.
type system struct {
	URL     string
	Server  *serve.Server   // the single server; nil behind a router
	Shards  []*serve.Server // behind a router
	Router  *router.Router
	closers []func()
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// startServer cold-starts one server from the artifact file the config
// names and puts it behind a loopback listener.
func startServer(cfg serve.Config) (*system, error) {
	cfg.Logger = quiet
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	sys := &system{Server: srv, closers: []func(){srv.Close}}
	ln, err := listen(srv.Handler())
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.URL = ln.URL
	sys.closers = append(sys.closers, ln.stop)
	return sys, nil
}

// startFleet cuts the artifact into shards, starts one server per shard
// and a router in front, each on its own loopback listener.
func startFleet(artifactPath, dir string, shards int) (*system, error) {
	art, err := artifact.LoadFile(artifactPath)
	if err != nil {
		return nil, err
	}
	cuts, err := artifact.CutShards(art, shards)
	if err != nil {
		return nil, err
	}
	sys := &system{}
	urls := make([]string, shards)
	for i, cut := range cuts {
		path := filepath.Join(dir, artifact.ShardPath("fleet.locec", i, shards))
		if err := cut.SaveFile(path); err != nil {
			sys.close()
			return nil, err
		}
		shard, err := startServer(serve.Config{Artifact: path, ShardIndex: i, ShardCount: shards})
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.Shards = append(sys.Shards, shard.Server)
		sys.closers = append(sys.closers, shard.close)
		urls[i] = shard.URL
	}
	sys.Router, err = router.New(router.Config{
		Shards: shards, Transport: &router.HTTPTransport{BaseURLs: urls}, Logger: quiet,
	})
	if err != nil {
		sys.close()
		return nil, err
	}
	ln, err := listen(sys.Router.Handler())
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.URL = ln.URL
	sys.closers = append(sys.closers, ln.stop, http.DefaultClient.CloseIdleConnections)
	return sys, nil
}

// setUp brings the system up repeats times, timing each from nothing to
// the first 200 from /readyz over the socket, and returns the last one
// running together with a client connected to it.
func setUp(repeats int, start func() (*system, error)) (*system, *client, []time.Duration, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		// Every repeat starts from a collected heap, as a new process does:
		// what the previous system left behind would otherwise set the
		// collector's pace during this start.
		runtime.GC()
		t0 := time.Now()
		sys, err := start()
		if err != nil {
			return nil, nil, nil, err
		}
		cl := newClient(sys.URL)
		if err := cl.awaitReady(); err != nil {
			sys.close()
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0))
		if i == repeats-1 {
			return sys, cl, times, nil
		}
		cl.close()
		sys.close()
	}
}

// readSamples collects what the read loop measures, per op kind.
type readSamples struct {
	latency [numOpKinds][]time.Duration
	done    []time.Duration // completion offsets from the window start
	window  time.Duration   // wall time of the loop
	heap    heapCount       // what the process allocated during the loop
	ops     int
}

// edgeReply and classifyReply are the fields of the served bodies that the
// output checks read.
type edgeReply struct {
	U, V  uint32
	Found bool
	Label string
}

type classifyReply struct {
	Partial bool
	Results []*edgeReply
}

// checkEvery is the sampling rate of the served-label comparison.
const checkEvery = 50

// readLoop replays the schedule from entry first until the window is over
// (or count entries, when count > 0), on one connection, each request sent
// when the previous reply has been read. Every reply must be a 200 and
// complete; one in checkEvery is decoded and its labels compared with the
// labels the trained model predicts in process.
func readLoop(rep *report, tr *tracer, cl *client, sched *readSchedule, fx *fixture, first, count int, seconds float64) *readSamples {
	s := &readSamples{}
	start, heap := time.Now(), heapNow()
	for i := first; ; i++ {
		if count > 0 && i-first >= count {
			break
		}
		if count == 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		op := sched.at(i)
		method, path, body := op.request()
		sp := tr.begin("client."+opNames[op.Kind], i, -1)
		status, reply, latency, err := cl.do(method, path, body)
		tr.end(sp, nil)
		rep.Attempted++
		s.ops++
		switch {
		case err != nil:
			rep.fail("%s %s: %v", method, path, err)
			continue
		case status != http.StatusOK:
			rep.fail("%s %s: status %d: %.120s", method, path, status, reply)
			continue
		}
		s.latency[op.Kind] = append(s.latency[op.Kind], latency)
		s.done = append(s.done, time.Since(start))
		if i%checkEvery == 0 || op.Kind == opClassifyHot || op.Kind == opClassifyUnique {
			checkReadReply(rep, op, reply, fx, i%checkEvery == 0)
		}
	}
	s.window, s.heap = time.Since(start), heap.since()
	return s
}

// checkReadReply verifies one reply. Classify replies are always scanned
// for a partial answer; labels are decoded and compared when full is set.
func checkReadReply(rep *report, op readOp, reply []byte, fx *fixture, full bool) {
	switch op.Kind {
	case opEdge:
		var got edgeReply
		if err := json.Unmarshal(reply, &got); err != nil {
			rep.fail("edge reply: %v", err)
			return
		}
		checkLabel(rep, fx, &got)
	case opClassifyHot, opClassifyUnique:
		if bytes.Contains(reply, []byte(`"partial":true`)) {
			rep.fail("classify answered partial")
			return
		}
		if !full {
			return
		}
		var got classifyReply
		if err := json.Unmarshal(reply, &got); err != nil || len(got.Results) != len(op.Batch) {
			rep.fail("classify reply: %d results for %d edges (%v)", len(got.Results), len(op.Batch), err)
			return
		}
		for _, r := range got.Results {
			if r == nil {
				rep.fail("classify reply has a null entry")
				return
			}
			checkLabel(rep, fx, r)
		}
	}
}

func checkLabel(rep *report, fx *fixture, got *edgeReply) {
	want, ok := fx.labelOf[(graph.Edge{U: graph.NodeID(got.U), V: graph.NodeID(got.V)}).Key()]
	if !ok || !got.Found || got.Label != want.String() {
		rep.fail("edge {%d,%d}: served found=%v label=%q, model predicts %q", got.U, got.V, got.Found, got.Label, want)
	}
}

// wallClock reports the loop's wall-clock figures: GET /v1/edge is the
// headline operation, the mix is all four kinds.
func (s *readSamples) wallClock(rep *report, trace bool) {
	for k, l := range s.latency {
		rep.timing("client."+opNames[k], "us", scaled(l, 1e6))
	}
	rep.wallClock(trace, s.latency[opEdge], s.latency[:], s.window, s.ops)
}

// readFixture is the artifact the two read workloads share: the labelprop
// + XGB pipeline at serving scale, no dataset embedded, so the restored
// snapshot is read-only like a production replica.
func readFixture(cfg runConfig) (*fixture, error) {
	return trainFixture(cfg.Out, "read", fixtureSpec{
		Data: datasetSpec{Users: cfg.Size.ServeUsers, Density: 1},
		Pipe: pipelineSpec{"labelprop", "xgb"},
	})
}

// runReads is the shared body of serve_read and router_read.
func runReads(cfg runConfig, start func(fx *fixture, dir string) (*system, error), traced func(*report, *tracer, *system, *fixture, *readSchedule) error) (*report, error) {
	dir, cleanup, err := scratchDir(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	fx, err := readFixture(cfg)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.fact("n=%d edges=%d artifact=%d bytes fixture.train_s=%.3f", fx.Graph.NumNodes(), fx.Graph.NumEdges(), fx.Bytes, fx.TrainS)
	sys, cl, setups, err := setUp(cfg.Size.SetupRepeats, func() (*system, error) { return start(fx, dir) })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	defer cl.close()
	sched := newReadSchedule(cfg.Seed, fx.Graph)

	// Warm-up: fills the response cache with the recurring batches and
	// lets the connection, the router's latency histograms and the heap
	// settle. Its operations are checked but not measured.
	readLoop(rep, nil, cl, sched, fx, 0, cfg.Size.WarmupOps, 0)

	if !cfg.Trace {
		s := readLoop(rep, nil, cl, sched, fx, cfg.Size.WarmupOps, 0, cfg.Seconds)
		rep.fact("%d requests in %.2f s on one closed-loop connection", s.ops, s.window.Seconds())
		s.wallClock(rep, false)
		rep.gated(setups, s.latency[opEdge], s.heap, s.ops, fx.MacroF1)
		return rep, nil
	}

	// Traced run: the same loop without and then with a span per request,
	// a quarter of the window each (the rest of the run replays layers);
	// the span-free part feeds the client.* and e2e.* numbers.
	tr := newTracer(cfg.Workload)
	plain := readLoop(rep, nil, cl, sched, fx, cfg.Size.WarmupOps, 0, cfg.Seconds/4)
	spanned := readLoop(rep, tr, cl, sched, fx, cfg.Size.WarmupOps+plain.ops, plain.ops, 0)
	rep.Metrics["trace.overhead_share"] = (spanned.window - plain.window).Seconds() / plain.window.Seconds()
	rep.Metrics["fixture.train_s"] = fx.TrainS
	rep.Metrics["artifact.bytes"] = float64(fx.Bytes)
	clientMetrics(rep, plain)
	if err := traced(rep, tr, sys, fx, sched); err != nil {
		return nil, err
	}
	return rep, rep.writeTrace(tr, cfg)
}

// clientMetrics reports the client-side latencies of a read loop that are
// shown but not gated: per-kind medians, the p99s and the request rate.
func clientMetrics(rep *report, s *readSamples) {
	us := func(k opKind) []float64 { return sortedCopy(scaled(s.latency[k], 1e6)) }
	rep.Metrics["client.edge_p50_us"] = quantile(us(opEdge), 0.5)
	rep.Metrics["client.edge_p99_us"] = quantile(us(opEdge), 0.99)
	rep.Metrics["client.classify_hit_p50_us"] = quantile(us(opClassifyHot), 0.5)
	rep.Metrics["client.classify_miss_p50_us"] = quantile(us(opClassifyUnique), 0.5)
	rep.Metrics["client.classify_p99_us"] = quantile(sortedCopy(append(us(opClassifyHot), us(opClassifyUnique)...)), 0.99)
	rep.Metrics["client.communities_p50_us"] = quantile(us(opCommunities), 0.5)
	rep.Metrics["client.read_rps"] = windowMedian(s.done, time.Second, s.window)
	s.wallClock(rep, true)
}

func runServeRead(cfg runConfig) (*report, error) {
	return runReads(cfg,
		func(fx *fixture, _ string) (*system, error) { return startServer(serve.Config{Artifact: fx.Path}) },
		func(rep *report, tr *tracer, sys *system, fx *fixture, sched *readSchedule) error {
			if err := traceColdStart(rep, tr, fx); err != nil {
				return err
			}
			h := replayHandler(rep, tr, sys.Server.Handler(), sched, cfg.Size.WarmupOps, cfg.Size.ReplayOps)
			rep.Metrics["serve.handler_edge_us"] = h[opEdge]
			rep.Metrics["wire.edge_overhead_us"] = rep.Metrics["client.edge_p50_us"] - h[opEdge]
			rep.Metrics["serve.handler_communities_us"] = h[opCommunities]
			rep.Metrics["serve.handler_classify_hit_us"] = h[opClassifyHot]
			rep.Metrics["serve.handler_classify_miss_us"] = h[opClassifyUnique]
			return cacheHitRatio(rep, sys.Server.Handler())
		})
}

func runRouterRead(cfg runConfig) (*report, error) {
	const shards = 2
	return runReads(cfg,
		func(fx *fixture, dir string) (*system, error) { return startFleet(fx.Path, dir, shards) },
		func(rep *report, tr *tracer, sys *system, fx *fixture, sched *readSchedule) error {
			if err := traceColdStart(rep, tr, fx); err != nil {
				return err
			}
			art, err := artifact.LoadFile(fx.Path)
			if err != nil {
				return err
			}
			sp := tr.begin("artifact.cut_shards", 0, -1)
			_, err = artifact.CutShards(art, shards)
			rep.Metrics["artifact.cut_shards_s"] = tr.end(sp, map[string]float64{"shards": shards}).Seconds()
			if err != nil {
				return err
			}
			if err := routerStats(rep, sys); err != nil {
				return err
			}

			// The router over in-process shard handlers: routing, breaker
			// and hedge bookkeeping with the sockets taken away.
			handlers := make([]http.Handler, len(sys.Shards))
			for i, s := range sys.Shards {
				handlers[i] = s.Handler()
			}
			direct, err := router.New(router.Config{Shards: shards, Transport: &router.HandlerTransport{Handlers: handlers}, Logger: quiet})
			if err != nil {
				return err
			}
			h := replayHandler(rep, tr, direct.Handler(), sched, cfg.Size.WarmupOps, cfg.Size.ReplayOps)
			rep.Metrics["router.handler_edge_us"] = h[opEdge]
			rep.Metrics["wire.edge_overhead_us"] = rep.Metrics["client.edge_p50_us"] - h[opEdge]
			rep.Metrics["router.handler_classify_us"] = (h[opClassifyHot] + h[opClassifyUnique]) / 2

			rg, err := ring.New(shards)
			if err != nil {
				return err
			}
			edges := sched.edges
			sp = tr.begin("ring.owner", 0, -1)
			sink := 0
			for _, e := range edges {
				sink += rg.OwnerEdge(uint32(e.U), uint32(e.V))
			}
			rep.Metrics["ring.owner_ns"] = float64(tr.end(sp, map[string]float64{"lookups": float64(len(edges)), "sink": float64(sink)}).Nanoseconds()) / float64(len(edges))
			return nil
		})
}

// traceColdStart times the set-up layers one by one: reading and decoding
// the artifact, then a whole serve.New from it.
func traceColdStart(rep *report, tr *tracer, fx *fixture) error {
	sp := tr.begin("artifact.load", 0, -1)
	art, err := artifact.LoadFile(fx.Path)
	if err != nil {
		return err
	}
	if _, err := art.Graph(); err != nil {
		return err
	}
	ex, err := art.Export()
	if err != nil {
		return err
	}
	rep.Metrics["artifact.load_s"] = tr.end(sp, map[string]float64{"bytes": float64(fx.Bytes)}).Seconds()

	sp = tr.begin("serve.coldstart", 0, -1)
	srv, err := serve.New(serve.Config{Artifact: fx.Path, Logger: quiet})
	if err != nil {
		return err
	}
	rep.Metrics["serve.coldstart_s"] = tr.end(sp, nil).Seconds()
	srv.Close()

	// The store under every read, called directly.
	res, err := core.NewPipeline(core.Config{}).RunFromArtifact(ex)
	if err != nil {
		return err
	}
	keys := res.Edges.Keys()
	const lookups = 200000
	sp = tr.begin("core.edge_lookup", 0, -1)
	found := 0
	for i := range lookups {
		if l, ok := res.Edges.Label(keys[mix(uint64(i))%uint64(len(keys))]); ok && l != social.Unlabeled {
			found++
		}
	}
	rep.Metrics["core.edge_lookup_ns"] = float64(tr.end(sp, map[string]float64{"lookups": lookups, "found": float64(found)}).Nanoseconds()) / lookups
	return nil
}

// replayHandler sends count schedule entries through a handler with a
// recorder, no socket, and returns the median microseconds per op kind.
// Classify requests are told apart by the X-Cache header where the handler
// sets it, by schedule kind otherwise.
func replayHandler(rep *report, tr *tracer, h http.Handler, sched *readSchedule, first, count int) [numOpKinds]float64 {
	var lat [numOpKinds][]time.Duration
	for i := first; i < first+count; i++ {
		op := sched.at(i)
		method, path, body := op.request()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, path, rd)
		rec := httptest.NewRecorder()
		sp := tr.begin("handler."+opNames[op.Kind], i, -1)
		h.ServeHTTP(rec, req)
		d := tr.end(sp, nil)
		rep.Attempted++
		if rec.Code != http.StatusOK {
			rep.fail("handler %s %s: status %d", method, path, rec.Code)
			continue
		}
		kind := op.Kind
		switch rec.Header().Get("X-Cache") {
		case "hit":
			kind = opClassifyHot
		case "miss":
			kind = opClassifyUnique
		}
		lat[kind] = append(lat[kind], d)
	}
	var out [numOpKinds]float64
	for k, l := range lat {
		out[k] = median(scaled(l, 1e6))
		rep.timing("handler."+opNames[k], "us", scaled(l, 1e6))
	}
	return out
}

// getJSON fetches a JSON document from a handler without a socket.
func getJSON(h http.Handler, path string, into any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), into)
}

// cacheHitRatio reads the response cache's own counters from /v1/stats.
func cacheHitRatio(rep *report, h http.Handler) error {
	var stats struct {
		Cache struct{ Hits, Misses float64 }
	}
	if err := getJSON(h, "/v1/stats", &stats); err != nil {
		return err
	}
	if total := stats.Cache.Hits + stats.Cache.Misses; total > 0 {
		rep.Metrics["serve.cache_hit_ratio"] = stats.Cache.Hits / total
	}
	return nil
}

// routerStats reads the router's counters: shard calls per client request
// (useful work over attempts), hedges and retries.
func routerStats(rep *report, sys *system) error {
	var stats struct {
		Shards []struct{ Requests, Hedges, Retries, Failures float64 }
	}
	if err := getJSON(sys.Router.Handler(), "/v1/stats", &stats); err != nil {
		return err
	}
	var calls, hedges, retries float64
	for _, s := range stats.Shards {
		calls += s.Requests
		hedges += s.Hedges
		retries += s.Retries
		if s.Failures > 0 {
			rep.fail("router counted %g failed shard calls", s.Failures)
		}
	}
	rep.Metrics["router.shard_calls_per_request"] = calls / float64(rep.Attempted)
	rep.Metrics["router.hedges"] = hedges
	rep.Metrics["router.retries"] = retries
	return nil
}
