package router

import (
	"testing"
	"time"

	"locec/internal/latency"
)

// TestHedgeBoundsAndDelay pins the hedge clamp: each bound defaults only
// when unset, the ceiling wins an inverted pair, and hedgeDelay never
// leaves [HedgeMin, HedgeMax] whatever the shard's p95 estimate.
func TestHedgeBoundsAndDelay(t *testing.T) {
	const ms, us = time.Millisecond, time.Microsecond
	cases := []struct{ min, max, wantMin, wantMax time.Duration }{
		{0, 0, ms, 50 * ms},
		{0, 500 * us, 500 * us, 500 * us},
		{100 * ms, 0, 50 * ms, 50 * ms},
		{2 * ms, 20 * ms, 2 * ms, 20 * ms},
	}
	for _, c := range cases {
		cfg := (&Config{HedgeMin: c.min, HedgeMax: c.max}).withDefaults()
		if cfg.HedgeMin != c.wantMin || cfg.HedgeMax != c.wantMax {
			t.Errorf("{%v, %v}: bounds [%v, %v], want [%v, %v]",
				c.min, c.max, cfg.HedgeMin, cfg.HedgeMax, c.wantMin, c.wantMax)
		}
		r := &Router{cfg: cfg}
		if d := r.hedgeDelay(&shardState{lat: latency.New()}); d != cfg.HedgeMax {
			t.Errorf("{%v, %v}: cold-start delay %v, want the ceiling %v", c.min, c.max, d, cfg.HedgeMax)
		}
		for _, p95 := range []time.Duration{c.wantMin / 4, (c.wantMin + c.wantMax) / 2, 4 * c.wantMax} {
			st := &shardState{lat: latency.New()}
			for i := 0; i < 32; i++ {
				st.lat.Observe(p95)
			}
			if d := r.hedgeDelay(st); d < cfg.HedgeMin || d > cfg.HedgeMax {
				t.Errorf("{%v, %v}: p95≈%v gives delay %v outside [%v, %v]",
					c.min, c.max, p95, d, cfg.HedgeMin, cfg.HedgeMax)
			}
		}
	}
}
