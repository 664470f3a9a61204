package router

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit: closed (traffic
// flows), open (fail fast, no traffic), half-open (one trial request
// probes whether the shard recovered).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string { return [...]string{"closed", "open", "half-open"}[s] }

// breaker is a per-shard circuit breaker. It exists to convert a dead
// shard's failure mode from "every request burns a full timeout+retry
// budget" into "fail in microseconds": after threshold consecutive
// failures the circuit opens and requests fail fast until cooldown
// elapses, then a single half-open trial decides between reopening and
// closing. Both request outcomes and health-probe outcomes feed it,
// so a recovered shard is rediscovered by the prober even with no client
// traffic.
type breaker struct {
	mu        sync.Mutex
	state     breakerState
	fails     int // consecutive failures while closed
	openedAt  time.Time
	trialing  bool // a half-open trial is in flight
	threshold int
	cooldown  time.Duration
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a request may proceed. In the open state it
// flips to half-open once cooldown has elapsed and admits exactly one
// trial; concurrent requests keep failing fast until the trial reports.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
	default: // half-open
		if b.trialing {
			return false
		}
	}
	b.trialing = true
	return true
}

func (b *breaker) record(ok bool)      { b.feed(ok, false) }
func (b *breaker) recordProbe(ok bool) { b.feed(ok, true) }

// feed takes in one request or probe outcome. A success closes the
// circuit: a half-open trial's, or a probe's, which bypasses allow and
// was the trial — how a recovered shard rejoins the fleet even when no
// client traffic reaches it. A failure while closed counts toward the
// threshold; a half-open trial's or a probe's while open (re)opens the
// circuit and restarts the cooldown. A request outcome arriving while
// open is from before the trip, which already absorbed it.
func (b *breaker) feed(ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.state == breakerOpen && !probe:
	case ok:
		b.state, b.fails, b.trialing = breakerClosed, 0, false
	case b.state != breakerClosed:
		b.state, b.trialing, b.openedAt = breakerOpen, false, time.Now()
	default:
		if b.fails++; b.fails >= b.threshold {
			b.state, b.openedAt = breakerOpen, time.Now()
		}
	}
}

// current returns the state for stats/readiness without side effects.
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
