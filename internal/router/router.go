// Package router is the fleet front door for sharded LoCEC serving: it
// owns no graph data, only the same consistent-hash ring the cutter and
// every shard compute, and forwards each request to the shard that owns
// it. Single-key reads (/v1/edge, /v1/communities/{node}) route to one
// shard; /v1/classify batches scatter to every owning shard and gather —
// degrading to an explicit partial result when a shard is unreachable;
// /v1/mutations fan out only to the shards whose data a batch touches.
//
// Fault tolerance follows the tail-at-scale playbook, built entirely
// above the Transport seam:
//
//   - per-RPC attempt deadlines and an end-to-end request deadline
//   - capped exponential backoff with seeded jitter, retries on
//     idempotent reads only
//   - hedged requests: a second attempt launches once the first has
//     outlived the shard's observed p95 latency (clamped to
//     [HedgeMin, HedgeMax]); first reply wins
//   - per-shard circuit breakers fed by request outcomes and /readyz
//     probes: a dead shard costs microseconds, not timeouts, and a
//     recovered one is readmitted by a probe or a half-open trial
//
// Nothing here is best-effort-silent: a missing shard is named in
// missing_shards, a misrouted key surfaces the shard's 421, and /v1/stats
// exposes every retry, hedge and breaker transition.
package router

import (
	"context"
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
	// MaxRetries is how many times an idempotent read is retried after a
	// failed attempt (default 2; mutations are never retried).
	MaxRetries int
	// RetryBase/RetryMax shape the capped exponential backoff between
	// retries: base*2^attempt, jittered to [1/2, 1) of itself, capped at
	// max (defaults 10ms / 250ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// HedgeMin/HedgeMax clamp the hedge delay around the shard's observed
	// p95 (each defaults when ≤ 0: 1ms / 50ms). HedgeMax is the cap on
	// wasted work, so it wins an inverted pair: a floor above the ceiling
	// is lowered to it. Hedging applies to idempotent reads.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// BreakerThreshold consecutive failures open a shard's circuit;
	// BreakerCooldown later a half-open trial is admitted (defaults 5 /
	// 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed feeds the backoff jitter (0 = 1); determinism matters to the
	// fault matrix, not to production.
	Seed int64
	// Logger receives lifecycle logs (nil = slog default).
	Logger *slog.Logger
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.AttemptTimeout <= 0 {
		out.AttemptTimeout = 2 * time.Second
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 10 * time.Second
	}
	if out.MaxRetries < 0 {
		out.MaxRetries = 0
	} else if out.MaxRetries == 0 {
		out.MaxRetries = 2
	}
	if out.RetryBase <= 0 {
		out.RetryBase = 10 * time.Millisecond
	}
	if out.RetryMax <= 0 {
		out.RetryMax = 250 * time.Millisecond
	}
	if out.HedgeMin <= 0 {
		out.HedgeMin = time.Millisecond
	}
	if out.HedgeMax <= 0 {
		out.HedgeMax = 50 * time.Millisecond
	}
	if out.HedgeMin > out.HedgeMax {
		out.HedgeMin = out.HedgeMax
	}
	if out.BreakerThreshold <= 0 {
		out.BreakerThreshold = 5
	}
	if out.BreakerCooldown <= 0 {
		out.BreakerCooldown = 5 * time.Second
	}
	if out.Seed == 0 {
		out.Seed = 1
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
	log    *slog.Logger
	ring   *ring.Ring
	shards []*shardState
	sgLat  *latency.Histogram // scatter-gather end-to-end latency
	start  time.Time

	rngMu sync.Mutex
	rng   *rand.Rand
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
	log := c.Logger
	if log == nil {
		log = slog.Default()
	}
	r := &Router{
		cfg:    c,
		log:    log,
		ring:   rg,
		shards: make([]*shardState, c.Shards),
		sgLat:  latency.New(),
		start:  time.Now(),
		rng:    rand.New(rand.NewSource(c.Seed)),
	}
	for i := range r.shards {
		r.shards[i] = &shardState{
			breaker: newBreaker(c.BreakerThreshold, c.BreakerCooldown),
			lat:     latency.New(),
		}
	}
	return r, nil
}

// ErrShardDown is returned when a shard's circuit is open (fail fast) or
// every attempt at it failed.
type ErrShardDown struct {
	Shard int
	Cause error
}

func (e *ErrShardDown) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("shard %d unavailable: %v", e.Shard, e.Cause)
	}
	return fmt.Sprintf("shard %d unavailable: circuit open", e.Shard)
}

func (e *ErrShardDown) Unwrap() error { return e.Cause }

// call is the resilient RPC: breaker gate, hedged attempt, capped
// jittered backoff retries (idempotent only), all under ctx — which the
// handler has already bounded with RequestTimeout.
func (r *Router) call(ctx context.Context, shard int, method, path string, body []byte, idempotent bool) (*Response, error) {
	st := r.shards[shard]
	st.requests.Add(1)
	var lastErr error
	maxAttempts := 1
	if idempotent {
		maxAttempts += r.cfg.MaxRetries
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			break
		}
		if !st.breaker.allow() {
			st.breakerFastFails.Add(1)
			if lastErr == nil {
				lastErr = fmt.Errorf("circuit open")
			}
			break
		}
		if attempt > 0 {
			st.retries.Add(1)
		}
		resp, err := r.hedgedDo(ctx, shard, method, path, body, idempotent)
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
	return nil, &ErrShardDown{Shard: shard, Cause: lastErr}
}

// backoff sleeps base*2^attempt jittered to [1/2, 1) of itself, capped
// at RetryMax — or less, if ctx dies first.
func (r *Router) backoff(ctx context.Context, attempt int) {
	d := r.cfg.RetryBase << uint(attempt)
	if d > r.cfg.RetryMax {
		d = r.cfg.RetryMax
	}
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

// hedgedDo runs one logical attempt: one RPC under the attempt timeout,
// on the calling goroutine. For idempotent reads, if it has not answered
// within the shard's hedge delay (observed p95 clamped to [HedgeMin,
// HedgeMax]), a timer launches a second identical RPC and the first
// success wins — the Dean & Barroso tail cut. The loser is canceled; both
// RPCs hit the same immutable shard snapshot, so either reply is correct.
func (r *Router) hedgedDo(ctx context.Context, shard int, method, path string, body []byte, idempotent bool) (*Response, error) {
	pctx, cancelPrimary := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
	defer cancelPrimary()
	if !idempotent {
		return r.observedDo(pctx, shard, method, path, body)
	}
	st := r.shards[shard]
	var hedge struct {
		mu     sync.Mutex
		done   bool           // the primary has returned: launch nothing
		out    chan *Response // once launched: the hedge's reply, nil if it failed
		cancel context.CancelFunc
	}
	timer := time.AfterFunc(r.hedgeDelay(st), func() {
		hedge.mu.Lock()
		if hedge.done {
			hedge.mu.Unlock()
			return
		}
		hctx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
		hedge.out, hedge.cancel = make(chan *Response, 1), cancel
		hedge.mu.Unlock()
		st.hedges.Add(1)
		resp, err := r.observedDo(hctx, shard, method, path, body)
		if err == nil {
			cancelPrimary() // the straggler stops at once
		}
		hedge.out <- resp
	})
	resp, err := r.observedDo(pctx, shard, method, path, body)
	timer.Stop()
	hedge.mu.Lock()
	hedge.done = true
	out, cancelHedge := hedge.out, hedge.cancel
	hedge.mu.Unlock()
	if out == nil {
		return resp, err // a fast failure goes straight to the retry loop
	}
	defer cancelHedge()
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
	d := time.Duration(st.lat.Quantile(0.95))
	if d < r.cfg.HedgeMin {
		d = r.cfg.HedgeMin
	}
	if d > r.cfg.HedgeMax {
		d = r.cfg.HedgeMax
	}
	return d
}

// ProbeOnce probes every shard's /readyz concurrently and feeds the
// breakers: a ready shard closes its circuit (even from open — the probe
// is the trial), an unready or unreachable one counts as a failure.
// Returns the number of ready shards.
func (r *Router) ProbeOnce(ctx context.Context) int {
	var readyCount atomic.Int64
	parallel.Each(len(r.shards), func(shard int) {
		resp, err := r.hedgedDo(ctx, shard, http.MethodGet, "/readyz", nil, false)
		ok := err == nil && resp.Status == http.StatusOK
		r.shards[shard].breaker.recordProbe(ok)
		r.shards[shard].probeOK.Store(ok)
		if ok {
			readyCount.Add(1)
		}
	})
	return int(readyCount.Load())
}

// StartProber probes every interval until stop is called.
func (r *Router) StartProber(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), r.cfg.AttemptTimeout)
				ready := r.ProbeOnce(ctx)
				cancel()
				if ready < r.cfg.Shards {
					r.log.Warn("probe", "ready", ready, "shards", r.cfg.Shards)
				}
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
