// Package router is the fleet front door for sharded LoCEC serving. It
// owns no graph data, only the consistent-hash ring the cutter and every
// shard compute, and forwards each request to the shard that owns it:
// single-key reads (/v1/edge, /v1/communities/{node}) to one shard,
// /v1/classify batches scattered to every owning shard and gathered (an
// explicit partial result when a shard is unreachable). It serves the
// fleet's reads only: a shard is an artifact cut without the raw dataset,
// so POST /v1/mutations is one fixed 409 naming the full trained server,
// and every RPC the router makes is a read.
//
// Fault tolerance follows the tail-at-scale playbook, above the Transport
// seam: per-RPC attempt deadlines under an end-to-end request deadline;
// capped exponential backoff with seeded jitter between retries; hedged
// reads, a second attempt once the first outlives the shard's observed
// p95 (clamped to [HedgeMin, HedgeMax]), first success wins; per-shard
// circuit breakers fed by outcomes and /readyz probes, so a dead shard
// costs microseconds and a probe or a half-open trial readmits a
// recovered one. Nothing is silent: a missing shard is named in
// missing_shards, a misrouted key surfaces the shard's 421, and /v1/stats
// exposes every retry, hedge and breaker transition.
package router

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"locec/internal/latency"
	"locec/internal/parallel"
	"locec/internal/ring"
)

// Config tunes the router.
type Config struct {
	// Shards is the fleet size N; the ring is a pure function of it.
	Shards int
	// Transport reaches the shards (required).
	Transport Transport

	// AttemptTimeout bounds one RPC attempt (default 2s).
	AttemptTimeout time.Duration
	// RequestTimeout bounds one client request end to end, across all
	// retries and hedges (default 10s).
	RequestTimeout time.Duration
	// MaxRetries is how many times a routed read is retried after a failed
	// attempt (default 2).
	MaxRetries int
	// RetryBase/RetryMax shape the capped exponential backoff between
	// retries: base*2^attempt, jittered to [1/2, 1) of itself, capped at
	// max (defaults 10ms / 250ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// HedgeMin/HedgeMax clamp the hedge delay around the shard's observed
	// p95 (defaults when ≤ 0: 1ms / 50ms). HedgeMax, the cap on wasted
	// work, wins an inverted pair.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// BreakerThreshold consecutive failures open a shard's circuit;
	// BreakerCooldown later a half-open trial is admitted (5 / 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Logger receives lifecycle logs (nil = slog default).
	Logger *slog.Logger
}

func (c *Config) withDefaults() Config {
	out := *c
	for _, d := range []struct {
		p   *time.Duration
		def time.Duration
	}{
		{&out.AttemptTimeout, 2 * time.Second}, {&out.RequestTimeout, 10 * time.Second},
		{&out.RetryBase, 10 * time.Millisecond}, {&out.RetryMax, 250 * time.Millisecond},
		{&out.HedgeMin, time.Millisecond}, {&out.HedgeMax, 50 * time.Millisecond},
		{&out.BreakerCooldown, 5 * time.Second},
	} {
		if *d.p <= 0 {
			*d.p = d.def
		}
	}
	if out.MaxRetries < 0 {
		out.MaxRetries = 0
	} else if out.MaxRetries == 0 {
		out.MaxRetries = 2
	}
	out.HedgeMin = min(out.HedgeMin, out.HedgeMax)
	if out.BreakerThreshold <= 0 {
		out.BreakerThreshold = 5
	}
	if out.Logger == nil {
		out.Logger = slog.Default()
	}
	return out
}

// shardState is the router's per-shard bookkeeping.
type shardState struct {
	breaker *breaker
	lat     *latency.Histogram

	requests         atomic.Int64
	failures         atomic.Int64
	retries          atomic.Int64
	hedges           atomic.Int64
	hedgeWins        atomic.Int64
	breakerFastFails atomic.Int64
	probeOK          atomic.Bool
}

// Router routes requests to a sharded locec-serve fleet.
type Router struct {
	cfg    Config
	ring   *ring.Ring
	shards []*shardState
	sgLat  *latency.Histogram // scatter-gather end-to-end latency
	start  time.Time
	rngMu  sync.Mutex
	rng    *rand.Rand
}

// New builds a Router; it makes no RPCs (probe or serve to discover the
// fleet's health), but refuses an HTTPTransport with a bad base URL.
func New(cfg Config) (*Router, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("router: %d shards, want >= 1", cfg.Shards)
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("router: nil transport")
	}
	if ht, ok := cfg.Transport.(*HTTPTransport); ok {
		if err := ht.parse(); err != nil {
			return nil, err
		}
	}
	c := cfg.withDefaults()
	rg, err := ring.New(c.Shards)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	r := &Router{
		cfg:    c,
		ring:   rg,
		shards: make([]*shardState, c.Shards),
		sgLat:  latency.New(),
		start:  time.Now(),
		rng:    rand.New(rand.NewSource(1)), // a fixed jitter schedule, for the fault matrix
	}
	for i := range r.shards {
		r.shards[i] = &shardState{
			breaker: newBreaker(c.BreakerThreshold, c.BreakerCooldown),
			lat:     latency.New(),
		}
	}
	return r, nil
}

// errCircuitOpen is why a shard that was never tried is unavailable.
var errCircuitOpen = errors.New("circuit open")

// call is the resilient read: breaker gate, hedged attempt, capped
// jittered backoff retries, all under ctx — which the handler has already
// bounded with RequestTimeout.
func (r *Router) call(ctx context.Context, shard int, method, path string, body []byte) (*Response, error) {
	st := r.shards[shard]
	st.requests.Add(1)
	lastErr := errCircuitOpen // until an attempt fails
	maxAttempts := 1 + r.cfg.MaxRetries
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			break
		}
		if !st.breaker.allow() {
			st.breakerFastFails.Add(1)
			break
		}
		if attempt > 0 {
			st.retries.Add(1)
		}
		resp, err := r.hedgedDo(ctx, shard, method, path, body, false)
		// An HTTP status — any status — is a live shard; only transport
		// errors and 5xx (the shard itself failing) trip the breaker.
		ok := err == nil && resp.Status < 500
		st.breaker.record(ok)
		if ok {
			return resp, nil
		}
		st.failures.Add(1)
		if err == nil {
			err = fmt.Errorf("shard %d returned %d", shard, resp.Status)
		}
		lastErr = err
		if attempt+1 < maxAttempts {
			r.backoff(ctx, attempt)
		}
	}
	return nil, fmt.Errorf("shard %d unavailable: %w", shard, lastErr)
}

// backoff sleeps base*2^attempt jittered to [1/2, 1) of itself, capped
// at RetryMax — or less, if ctx dies first.
func (r *Router) backoff(ctx context.Context, attempt int) {
	d := min(r.cfg.RetryBase<<uint(attempt), r.cfg.RetryMax)
	r.rngMu.Lock()
	jittered := d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
	r.rngMu.Unlock()
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// hedgedDo runs one logical attempt: one RPC under the attempt deadline,
// on the calling goroutine. Unless it is a probe, if it has not answered
// within the shard's hedge delay (observed p95 clamped to [HedgeMin,
// HedgeMax]), a timer launches a second identical RPC and the first
// success wins — the Dean & Barroso tail cut; the loser is ended (both
// read the same immutable shard snapshot, so either reply is right). The
// primary's attempt and the timer are pooled: the hedge's goroutine,
// channel and attempt exist only once the timer fires, which is also when
// the primary starts to watch ctx for a cancel (its deadline binds now).
func (r *Router) hedgedDo(ctx context.Context, shard int, method, path string, body []byte, probe bool) (*Response, error) {
	st, p := r.shards[shard], rpcPool.Get().(*rpc)
	p.r, p.shard, p.method, p.path, p.body, p.probe = r, shard, method, path, body, probe
	p.start(ctx, r.cfg.AttemptTimeout)
	if p.timer == nil {
		p.timer = time.AfterFunc(r.hedgeDelay(st), p.fire)
	} else {
		p.timer.Reset(r.hedgeDelay(st))
	}
	resp, err := r.observedDo(&p.attempt, shard, method, path, body)
	stopped := p.timer.Stop()
	p.mu.Lock()
	p.returned = true
	out, hedge, reuse := p.out, p.hedge, stopped && p.done == nil && p.stopWatch == nil
	p.mu.Unlock()
	if reuse { // no timer, watcher or Done saw p
		*p = rpc{timer: p.timer}
		rpcPool.Put(p)
	}
	if out == nil {
		return resp, err // a fast failure goes straight to the retry loop
	}
	defer hedge.end(context.Canceled)
	if err == nil {
		return resp, nil
	}
	select {
	case hresp := <-out:
		if hresp == nil {
			return nil, err // both RPCs failed; the retry loop takes over
		}
		st.hedgeWins.Add(1)
		return hresp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// rpc is a hedgedDo call: the primary's attempt, what a hedge would send
// and the hedge timer, which a pooled rpc keeps.
type rpc struct {
	attempt
	r            *Router
	shard        int
	method, path string
	body         []byte
	probe        bool // a /readyz probe: one RPC, never hedged
	timer        *time.Timer
	returned     bool           // under mu: the primary has returned
	out          chan *Response // under mu, made by fire: the hedge's reply, nil if it failed
	hedge        *attempt       // under mu, made by fire
}

var rpcPool = sync.Pool{New: func() any { return new(rpc) }}

// fire runs on the timer's goroutine once the primary has outlived the
// hedge delay: ctx's cancel now ends the primary at once, and a read that
// is not a probe launches its hedge, whose success ends the primary.
func (p *rpc) fire() {
	gone := p.parent.Err() != nil // no hedge for a request that has ended
	p.mu.Lock()
	if p.returned {
		p.mu.Unlock()
		return
	}
	p.watchLocked()
	if p.probe || p.err != nil || gone {
		p.mu.Unlock()
		return
	}
	p.hedge, p.out = new(attempt), make(chan *Response, 1)
	h, out := p.hedge, p.out
	h.start(p.parent, p.r.cfg.AttemptTimeout)
	h.watchLocked() // h is not shared yet
	p.mu.Unlock()
	p.r.shards[p.shard].hedges.Add(1)
	resp, err := p.r.observedDo(h, p.shard, p.method, p.path, p.body)
	if err == nil {
		p.end(context.Canceled) // the straggler stops at once
	}
	out <- resp
}

// observedDo is one RPC, with latency recorded on success.
func (r *Router) observedDo(ctx context.Context, shard int, method, path string, body []byte) (*Response, error) {
	t0 := time.Now()
	resp, err := r.cfg.Transport.Do(ctx, shard, method, path, body)
	if err == nil {
		r.shards[shard].lat.Observe(time.Since(t0))
	}
	return resp, err
}

// hedgeDelay is the shard's observed p95 clamped to [HedgeMin,
// HedgeMax]. With little data (cold start) it sits at HedgeMax:
// conservative until the histogram has signal.
func (r *Router) hedgeDelay(st *shardState) time.Duration {
	if st.lat.Count() < 16 {
		return r.cfg.HedgeMax
	}
	return min(max(time.Duration(st.lat.Quantile(0.95)), r.cfg.HedgeMin), r.cfg.HedgeMax)
}

// ProbeOnce probes every shard's /readyz concurrently and feeds the
// breakers: a ready shard closes its circuit (even from open — the probe
// is the trial), an unready or unreachable one counts as a failure.
// Returns the number of ready shards.
func (r *Router) ProbeOnce(ctx context.Context) int {
	var readyCount atomic.Int64
	parallel.Each(len(r.shards), func(shard int) {
		resp, err := r.hedgedDo(ctx, shard, http.MethodGet, "/readyz", nil, true)
		ok := err == nil && resp.Status == http.StatusOK
		r.shards[shard].breaker.recordProbe(ok)
		r.shards[shard].probeOK.Store(ok)
		if ok {
			readyCount.Add(1)
		}
	})
	return int(readyCount.Load())
}

// StartProber probes every interval, each probe bounded by
// AttemptTimeout, until stop is called.
func (r *Router) StartProber(interval time.Duration) (stop func()) {
	ctx, stop := context.WithCancel(context.Background())
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if ready := r.ProbeOnce(context.Background()); ready < r.cfg.Shards {
					r.cfg.Logger.Warn("probe", "ready", ready, "shards", r.cfg.Shards)
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return stop
}
