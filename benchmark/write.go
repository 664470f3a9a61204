package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"locec/internal/artifact"
	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/serve"
	"locec/internal/social"
	"locec/internal/wal"
)

// writePipe is the write workload's pipeline: a local detector, so Phase I
// cost after a mutation is what the local-detection papers promise to keep
// independent of graph size, and the one kind of detector seeded replay
// works with. An artifact does not store the detector's grow provenance,
// so on a server cold-started from one an ego can replay only after an
// earlier mutation has re-divided it; with mutations spread uniformly over
// 10 000 users that is rare inside a window and core.seeded_ego_share
// reads about 0.02.
var writePipe = pipelineSpec{"clauset", "xgb"}

const (
	// Every mutation is followed by edgeReads single lookups and one
	// classify batch of the mutated neighbourhood.
	edgeReads = 9
	// checkpointPeriod is serve's default CheckpointRecords. The measured
	// window closes on a multiple of it, so every window holds whole
	// checkpoint periods and mean_op_ms does not depend on where the cut
	// falls relative to a stall.
	checkpointPeriod = 64
	warmupCycles     = 8
)

// writeSamples collects what the write loop measures.
type writeSamples struct {
	mutation, edge, classify, cycle []time.Duration
	window                          time.Duration // wall time of the loop
	heap                            heapCount     // what the process allocated during it
	ops                             int
	// Sums over the receipts of the acknowledged mutations: the server's
	// own count of the work each epoch did.
	dirtyNodes, dirtyEdges, seededEgos float64
}

// writeLoop runs mutate-then-read cycles on one connection. Each cycle
// sends one wait:true mutation, which returns once the batch is in the
// WAL, applied and published, then reads the mutated neighbourhood. With
// cycles > 0 it runs exactly that many; otherwise until the window is over
// and the count of cycles is a multiple of checkpointPeriod.
func writeLoop(rep *report, tr *tracer, cl *client, sched *mutationSchedule, log *[]core.Mutation, lastEpoch *int64, cycles int, seconds float64) *writeSamples {
	s := &writeSamples{}
	start, heap := time.Now(), heapNow()
	for c := 0; ; c++ {
		if cycles > 0 && c >= cycles {
			break
		}
		if cycles == 0 && time.Since(start).Seconds() >= seconds && c%checkpointPeriod == 0 {
			break
		}
		id := len(*log)
		cycleStart := time.Now()
		root := tr.begin("client.cycle", id, -1)
		m := sched.next()
		*log = append(*log, m)

		sp := tr.begin("client.mutation", id, root)
		status, reply, latency, err := cl.do("POST", "/v1/mutations", mutationBody(m))
		tr.end(sp, nil)
		rep.Attempted++
		s.ops++
		var receipt struct {
			Status     string
			Epoch      int64
			DirtyNodes float64 `json:"dirty_nodes"`
			DirtyEdges float64 `json:"dirty_edges"`
			SeededEgos float64 `json:"seeded_egos"`
		}
		switch {
		case err != nil:
			rep.fail("mutation %d: %v", id, err)
		case status != http.StatusOK:
			rep.fail("mutation %d (%s {%d,%d}): status %d: %.120s", id, m.Kind, m.U, m.V, status, reply)
		case json.Unmarshal(reply, &receipt) != nil || receipt.Status != "applied":
			rep.fail("mutation %d: receipt %.120s", id, reply)
		case receipt.Epoch <= *lastEpoch:
			rep.fail("mutation %d: epoch %d after %d", id, receipt.Epoch, *lastEpoch)
		default:
			*lastEpoch = receipt.Epoch
			s.mutation = append(s.mutation, latency)
			s.dirtyNodes += receipt.DirtyNodes
			s.dirtyEdges += receipt.DirtyEdges
			s.seededEgos += receipt.SeededEgos
		}

		nb := sched.neighbourhood(m, classifyBatch)
		for j := 0; j <= edgeReads; j++ {
			method, path, body, name := "GET", edgePath(nb[j%len(nb)]), []byte(nil), "client.edge"
			if j == edgeReads {
				method, path, body, name = "POST", "/v1/classify", classifyBody(nb), "client.classify"
			}
			sp := tr.begin(name, id, root)
			status, reply, latency, err := cl.do(method, path, body)
			tr.end(sp, nil)
			rep.Attempted++
			s.ops++
			switch {
			case err != nil:
				rep.fail("%s %s: %v", method, path, err)
			case status != http.StatusOK:
				rep.fail("%s %s after mutation %d: status %d: %.120s", method, path, id, status, reply)
			case j == edgeReads:
				s.classify = append(s.classify, latency)
			default:
				s.edge = append(s.edge, latency)
			}
		}
		tr.end(root, nil)
		s.cycle = append(s.cycle, time.Since(cycleStart))
	}
	s.window, s.heap = time.Since(start), heap.since()
	return s
}

// mutableState restores dataset, pipeline and result from the fixture in
// process, the way serve restores a mutable artifact.
func mutableState(fx *fixture) (*social.Dataset, *core.Pipeline, *core.Result, error) {
	art, err := artifact.LoadFile(fx.Path)
	if err != nil {
		return nil, nil, nil, err
	}
	ds, err := art.Dataset()
	if err != nil {
		return nil, nil, nil, err
	}
	ex, err := art.Export()
	if err != nil {
		return nil, nil, nil, err
	}
	p, _, _, err := writePipe.build()
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := p.RunFromArtifact(ex)
	return ds, p, res, err
}

// checkRecovered compares the recovered server with an in-process
// reference: the same mutations applied to the fixture as one batch by
// Pipeline.ApplyMutations. Every edge around a mutation and one in
// checkEvery of the rest must be served with the reference's label.
func checkRecovered(rep *report, srv *serve.Server, fx *fixture, log []core.Mutation) error {
	ds, p, res, err := mutableState(fx)
	if err != nil {
		return err
	}
	if ds, res, _, err = p.ApplyMutations(ds, res, log); err != nil {
		return fmt.Errorf("reference apply: %w", err)
	}
	touched := make(map[graph.NodeID]bool, 2*len(log))
	for _, m := range log {
		touched[m.U], touched[m.V] = true, true
	}
	h := srv.Handler()
	i, checked := 0, 0
	ds.G.ForEachEdge(func(u, v graph.NodeID) {
		i++
		if !touched[u] && !touched[v] && i%checkEvery != 0 {
			return
		}
		checked++
		want, _ := res.PredictedLabelOK(u, v)
		var got edgeReply
		if err := getJSON(h, edgePath(graph.Edge{U: u, V: v}), &got); err != nil {
			rep.fail("recovered server: %v", err)
		} else if !got.Found || got.Label != want.String() {
			rep.fail("recovered edge {%d,%d}: served found=%v label=%q, reference predicts %q", u, v, got.Found, got.Label, want)
		}
	})
	rep.fact("recovered server compared with the in-process reference on %d edges", checked)
	return nil
}

func runServeWrite(cfg runConfig) (*report, error) {
	dir, cleanup, err := scratchDir(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	fx, err := trainFixture(cfg.Out, "write", fixtureSpec{
		Data: datasetSpec{Users: cfg.Size.ServeUsers, Density: 1}, Pipe: writePipe, Embed: true,
	})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.fact("n=%d edges=%d artifact=%d bytes fixture.train_s=%.3f", fx.Graph.NumNodes(), fx.Graph.NumEdges(), fx.Bytes, fx.TrainS)

	// Every boot gets its own WAL directory on the real filesystem, with
	// the default group-commit fsync policy and checkpoint thresholds.
	boots := 0
	walDir := ""
	serverConfig := func(walDir string) serve.Config {
		return serve.Config{Artifact: fx.Path, Variant: writePipe.Variant, Detector: writePipe.Detector, WALDir: walDir, Logger: quiet}
	}
	sys, cl, setups, err := setUp(cfg.Size.SetupRepeats, func() (*system, error) {
		boots++
		walDir = filepath.Join(dir, fmt.Sprintf("wal-%d", boots))
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
		return startServer(serverConfig(walDir))
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()
	defer cl.close()

	sched := newMutationSchedule(cfg.Seed, fx.Graph)
	var log []core.Mutation
	var lastEpoch int64
	writeLoop(rep, nil, cl, sched, &log, &lastEpoch, warmupCycles, 0)

	var tr *tracer
	var s *writeSamples
	if cfg.Trace {
		// Plain cycles for a quarter of the window, then as many under
		// spans; the rest of the run replays the layers.
		tr = newTracer(cfg.Workload)
		s = writeLoop(rep, nil, cl, sched, &log, &lastEpoch, 0, cfg.Seconds/4)
		spanned := writeLoop(rep, tr, cl, sched, &log, &lastEpoch, len(s.cycle), 0)
		rep.Metrics["trace.overhead_share"] = (median(scaled(spanned.cycle, 1)) - median(scaled(s.cycle, 1))) / median(scaled(s.cycle, 1))
	} else {
		s = writeLoop(rep, nil, cl, sched, &log, &lastEpoch, 0, cfg.Seconds)
	}
	rep.fact("%d cycles (1 mutation + %d reads) in %.2f s on one closed-loop connection", len(s.cycle), edgeReads+1, s.window.Seconds())
	rep.timing("client.mutation", "ms", scaled(s.mutation, 1e3))
	rep.timing("client.edge (after write)", "us", scaled(s.edge, 1e6))
	rep.timing("client.classify (after write)", "us", scaled(s.classify, 1e6))
	rep.timing("client.cycle", "ms", scaled(s.cycle, 1e3))

	// Orderly stop, then a second boot on the same WAL directory.
	before, _ := sys.Server.WALStats()
	cl.close()
	sys.close() // closing again on return is harmless
	sp := tr.begin("serve.recover", 0, -1)
	t0 := time.Now()
	recovered, err := serve.New(serverConfig(walDir))
	if err != nil {
		return nil, fmt.Errorf("second boot: %w", err)
	}
	recoverS := time.Since(t0).Seconds()
	tr.end(sp, nil)
	defer recovered.Close()
	after, _ := recovered.WALStats()
	if after.Seq != uint64(len(log)) {
		rep.fail("WAL sequence %d after recovery, %d mutations acknowledged", after.Seq, len(log))
	}
	if got := recovered.Dataset().G.NumEdges(); got != sched.numEdges {
		rep.fail("recovered graph has %d edges, initial + adds - removes = %d", got, sched.numEdges)
	}
	rep.fact("acknowledged %d mutations, %d checkpoints, recovery replayed %d records in %.3f s", len(log), before.Checkpoints, after.Replayed, recoverS)

	// The mutation is the headline operation; the mix is one mutation,
	// edgeReads lookups and one classify per cycle.
	rep.wallClock(cfg.Trace, s.mutation, [][]time.Duration{s.mutation, s.edge, s.classify}, s.window, s.ops)
	if !cfg.Trace {
		// Peak RSS is read here, before the reference below doubles the heap.
		rep.gated(setups, s.mutation, s.heap, s.ops, fx.MacroF1)
		return rep, checkRecovered(rep, recovered, fx, log)
	}

	ms := sortedCopy(scaled(s.mutation, 1e3))
	rep.Metrics["client.mutation_p50_ms"] = quantile(ms, 0.5)
	rep.Metrics["client.mutation_p90_ms"] = quantile(ms, 0.9)
	rep.Metrics["client.cycle_ms"] = median(scaled(s.cycle, 1e3))
	rep.Metrics["client.edge_p50_us"] = median(scaled(s.edge, 1e6))
	rep.Metrics["client.classify_miss_p50_us"] = median(scaled(s.classify, 1e6))
	rep.Metrics["core.dirty_nodes_per_epoch"] = s.dirtyNodes / float64(len(s.mutation))
	rep.Metrics["core.dirty_edges_per_epoch"] = s.dirtyEdges / float64(len(s.mutation))
	rep.Metrics["core.seeded_ego_share"] = s.seededEgos / s.dirtyNodes
	rep.Metrics["serve.checkpoints"] = float64(before.Checkpoints)
	rep.Metrics["serve.recover_s"] = recoverS
	rep.Metrics["wal.replayed_records"] = float64(after.Replayed)
	rep.Metrics["fixture.train_s"] = fx.TrainS
	rep.Metrics["artifact.bytes"] = float64(fx.Bytes)
	if err := checkRecovered(rep, recovered, fx, log); err != nil {
		return nil, err
	}
	if err := traceWriteLayers(rep, tr, cfg, fx, dir); err != nil {
		return nil, err
	}
	return rep, rep.writeTrace(tr, cfg)
}

// traceWriteLayers replays the head of the mutation schedule through each
// layer under the HTTP write path, alone: the incremental engine, the
// graph overlay, the WAL, and Server.Mutate without a socket.
func traceWriteLayers(rep *report, tr *tracer, cfg runConfig, fx *fixture, dir string) error {
	n := checkpointPeriod
	sched := newMutationSchedule(cfg.Seed, fx.Graph)
	muts := make([]core.Mutation, n)
	for i := range muts {
		muts[i] = sched.next()
	}

	sp := tr.begin("artifact.load", 0, -1)
	ds, p, res, err := mutableState(fx)
	if err != nil {
		return err
	}
	rep.Metrics["artifact.load_s"] = tr.end(sp, map[string]float64{"bytes": float64(fx.Bytes)}).Seconds()

	// graph: one topology change in an overlay, folded back into a CSR
	// graph. Only mutations valid on the unmutated graph qualify.
	var compacts []time.Duration
	for _, m := range muts {
		ov := graph.NewOverlay(ds.G)
		switch {
		case m.Kind == core.MutAdd && !ds.G.HasEdge(m.U, m.V):
			err = ov.AddEdge(m.U, m.V)
		case m.Kind == core.MutRemove && ds.G.HasEdge(m.U, m.V):
			err = ov.RemoveEdge(m.U, m.V)
		default:
			continue
		}
		if err != nil {
			return err
		}
		sp := tr.begin("graph.overlay_compact", 0, -1)
		ov.Compact()
		if compacts = append(compacts, tr.end(sp, nil)); len(compacts) == 8 {
			break
		}
	}
	rep.Metrics["graph.overlay_compact_ms"] = median(scaled(compacts, 1e3))

	// core: one epoch per mutation, each on the state the last one left.
	var applies []time.Duration
	for i, m := range muts {
		sp := tr.begin("core.apply_mutations", i, -1)
		nds, nres, st, err := p.ApplyMutations(ds, res, []core.Mutation{m})
		applies = append(applies, tr.end(sp, map[string]float64{
			"dirty_nodes": float64(st.DirtyNodes), "dirty_edges": float64(st.DirtyEdges), "seeded_egos": float64(st.SeededEgos),
		}))
		if err != nil {
			return fmt.Errorf("apply %s {%d,%d}: %w", m.Kind, m.U, m.V, err)
		}
		ds, res = nds, nres
	}
	rep.Metrics["core.apply_mutations_ms"] = median(scaled(applies, 1e3))
	rep.timing("core.apply_mutations", "ms", scaled(applies, 1e3))

	// wal: append and group-commit sync of one-mutation records.
	walDir := filepath.Join(dir, "wal-layer")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	l, _, err := wal.Open(wal.OSFS{}, walDir, wal.SyncBatch)
	if err != nil {
		return err
	}
	var appends, syncs []time.Duration
	for i, m := range muts {
		sp := tr.begin("wal.append", i, -1)
		_, err := l.Append([]core.Mutation{m})
		appends = append(appends, tr.end(sp, nil))
		if err != nil {
			return err
		}
		sp = tr.begin("wal.sync", i, -1)
		err = l.Sync()
		syncs = append(syncs, tr.end(sp, nil))
		if err != nil {
			return err
		}
	}
	st := l.Stats()
	if err := l.Close(); err != nil {
		return err
	}
	rep.Metrics["wal.append_us"] = median(scaled(appends, 1e6))
	rep.Metrics["wal.sync_us"] = median(scaled(syncs, 1e6))
	rep.Metrics["wal.bytes_per_record"] = float64(st.Bytes) / float64(st.Records)
	rep.timing("wal.sync", "us", scaled(syncs, 1e6))

	// serve: the same mutations through Server.Mutate, no HTTP, then one
	// explicit checkpoint.
	srvDir := filepath.Join(dir, "wal-mutate")
	if err := os.MkdirAll(srvDir, 0o755); err != nil {
		return err
	}
	sp = tr.begin("serve.coldstart", 0, -1)
	srv, err := serve.New(serve.Config{Artifact: fx.Path, Variant: writePipe.Variant, Detector: writePipe.Detector, WALDir: srvDir, Logger: quiet})
	if err != nil {
		return err
	}
	rep.Metrics["serve.coldstart_s"] = tr.end(sp, nil).Seconds()
	defer srv.Close()
	var mutates []time.Duration
	for i, m := range muts[:n/2] {
		sp := tr.begin("serve.mutate", i, -1)
		receipt, err := srv.Mutate([]core.Mutation{m}, true)
		mutates = append(mutates, tr.end(sp, nil))
		rep.Attempted++
		if err != nil || !receipt.Applied {
			rep.fail("Server.Mutate %s {%d,%d}: applied=%v err=%v", m.Kind, m.U, m.V, receipt.Applied, err)
		}
	}
	rep.Metrics["serve.mutate_ms"] = median(scaled(mutates, 1e3))
	sp = tr.begin("serve.checkpoint", 0, -1)
	err = srv.CheckpointNow()
	rep.Metrics["serve.checkpoint_s"] = tr.end(sp, nil).Seconds()
	return err
}
