// Package cluster simulates the distributed deployment of LoCEC
// (Section V-D): the production system streams nodes independently across
// a fleet of servers in all three phases, so phase time grows linearly in
// the node count and shrinks inversely in the server count.
//
// The simulator has two modes. Measured mode executes real per-item work
// through a bounded worker pool, records each item's wall-clock cost, and
// replays the cost sequence onto S virtual servers to obtain the makespan
// S servers would achieve. Model mode extrapolates from a fitted per-node
// cost to populations (hundreds of millions of nodes) that cannot be
// executed locally — the substitution for the paper's 100–200 server
// testbed documented in DESIGN.md.
package cluster

import (
	"time"

	"locec/internal/parallel"
)

// Report summarizes one simulated phase execution.
type Report struct {
	// Servers is the virtual fleet size.
	Servers int
	// Items is the number of streamed work items (nodes).
	Items int
	// Makespan is the simulated wall-clock: the busiest server's total.
	Makespan time.Duration
	// MeanLoad is the average per-server total.
	MeanLoad time.Duration
	// Imbalance is Makespan/MeanLoad (1.0 = perfectly balanced).
	Imbalance float64
	// RealWall is the actual local execution time (measured mode only).
	RealWall time.Duration
}

// Streamed executes fn(i) for i in [0, items) on a local worker pool while
// measuring each item's cost, then assigns the measured costs to servers
// round-robin (the production system's hash partitioning) and reports the
// simulated makespan.
func Streamed(items, servers int, fn func(i int)) Report {
	if servers <= 0 {
		servers = 1
	}
	costs := make([]time.Duration, items)
	start := time.Now()
	parallel.For(items, 1, func(i, _ int) {
		t0 := time.Now()
		fn(i)
		costs[i] = time.Since(t0)
	})
	rep := Replay(costs, servers)
	rep.RealWall = time.Since(start)
	return rep
}

// Replay assigns a cost sequence to servers round-robin and computes the
// resulting makespan statistics.
func Replay(costs []time.Duration, servers int) Report {
	if servers <= 0 {
		servers = 1
	}
	loads := make([]time.Duration, servers)
	for i, c := range costs {
		loads[i%servers] += c
	}
	var max, sum time.Duration
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	mean := time.Duration(0)
	if servers > 0 {
		mean = sum / time.Duration(servers)
	}
	imb := 1.0
	if mean > 0 {
		imb = float64(max) / float64(mean)
	}
	return Report{
		Servers:   servers,
		Items:     len(costs),
		Makespan:  max,
		MeanLoad:  mean,
		Imbalance: imb,
	}
}

// CostModel extrapolates phase runtimes from measured per-node costs.
type CostModel struct {
	// PerNode is the fitted mean cost of one node in each phase
	// (training excluded — the model is trained once, offline).
	PerNode [3]time.Duration
}

// Predict returns the modeled runtime of each phase for a population of
// nodes on a fleet of servers: nodes stream independently, so each phase
// costs ceil(nodes/servers) × per-node cost.
func (m CostModel) Predict(nodes, servers int) [3]time.Duration {
	if servers <= 0 {
		servers = 1
	}
	perServer := (nodes + servers - 1) / servers
	var out [3]time.Duration
	for p := 0; p < 3; p++ {
		out[p] = time.Duration(perServer) * m.PerNode[p]
	}
	return out
}
