package cluster

import (
	"testing"
	"time"
)

func TestReplayBalancedLoads(t *testing.T) {
	costs := make([]time.Duration, 100)
	for i := range costs {
		costs[i] = time.Millisecond
	}
	rep := Replay(costs, 10)
	if rep.Makespan != 10*time.Millisecond {
		t.Fatalf("makespan = %v, want 10ms", rep.Makespan)
	}
	if rep.Imbalance != 1.0 {
		t.Fatalf("imbalance = %v, want 1.0", rep.Imbalance)
	}
	if rep.Servers != 10 || rep.Items != 100 {
		t.Fatalf("report meta wrong: %+v", rep)
	}
}

func TestReplayMoreServersNeverSlower(t *testing.T) {
	costs := make([]time.Duration, 500)
	for i := range costs {
		costs[i] = time.Duration(1+i%7) * time.Millisecond
	}
	prev := Replay(costs, 1).Makespan
	for _, s := range []int{2, 5, 10, 50} {
		cur := Replay(costs, s).Makespan
		if cur > prev {
			t.Fatalf("makespan grew from %v to %v at %d servers", prev, cur, s)
		}
		prev = cur
	}
}

func TestReplaySingleServerEqualsSum(t *testing.T) {
	costs := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	rep := Replay(costs, 1)
	if rep.Makespan != 6*time.Millisecond {
		t.Fatalf("makespan = %v, want 6ms", rep.Makespan)
	}
}

func TestReplayZeroServersClamped(t *testing.T) {
	rep := Replay([]time.Duration{time.Millisecond}, 0)
	if rep.Servers != 1 {
		t.Fatalf("servers = %d, want 1", rep.Servers)
	}
}

func TestStreamedExecutesAll(t *testing.T) {
	hits := make([]int, 64)
	rep := Streamed(64, 8, func(i int) { hits[i]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("item %d executed %d times", i, h)
		}
	}
	if rep.Items != 64 || rep.RealWall <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCostModelLinearInNodes(t *testing.T) {
	m := CostModel{PerNode: [3]time.Duration{time.Microsecond, 2 * time.Microsecond, time.Microsecond}}
	small := m.Predict(1_000_000, 100)
	large := m.Predict(10_000_000, 100)
	for p := 0; p < 3; p++ {
		ratio := float64(large[p]) / float64(small[p])
		if ratio < 9.9 || ratio > 10.1 {
			t.Fatalf("phase %d scaling ratio = %.2f, want ~10", p, ratio)
		}
	}
}

func TestCostModelInverseInServers(t *testing.T) {
	m := CostModel{PerNode: [3]time.Duration{time.Microsecond, time.Microsecond, time.Microsecond}}
	s100 := m.Predict(10_000_000, 100)
	s200 := m.Predict(10_000_000, 200)
	for p := 0; p < 3; p++ {
		ratio := float64(s100[p]) / float64(s200[p])
		if ratio < 1.9 || ratio > 2.1 {
			t.Fatalf("phase %d server ratio = %.2f, want ~2", p, ratio)
		}
	}
}
