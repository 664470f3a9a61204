package serve

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/testutil/trained"
	"locec/internal/wal"
)

// simArtifact is one mutable artifact the simulation reloads, with the
// training run behind it: RunFrozen under pipe and res is the oracle of
// every state grown from the artifact.
type simArtifact struct {
	path string
	pipe *core.Pipeline
	res  *core.Result
}

// simArtifacts returns the two mutable artifacts the simulation reloads
// between, each with its training run.
func simArtifacts(t *testing.T) [2]simArtifact {
	var out [2]simArtifact
	for i, users := range []int{80, 90} {
		run := trained.Artifact(t, users, "labelprop", true)
		out[i] = simArtifact{path: run.Path, pipe: run.Pipeline, res: run.Result}
	}
	return out
}

// simServer boots the simulated WAL server on fsys, from its checkpoint
// when the directory holds one, else from the artifact at path.
func simServer(t *testing.T, fsys wal.FS, path string) *Server {
	t.Helper()
	cfg := walConfig(t, "sim", fsys)
	cfg.Artifact = path
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// simBatch draws a batch of n mutations on distinct edges of snap: adds of
// absent pairs, removes and relabels of present edges.
func simBatch(r *rand.Rand, snap *snapshot, n int) []core.Mutation {
	g := snap.ds.G
	edges := g.Edges()
	nodes := g.NumNodes()
	labels := []social.Label{social.Colleague, social.Family, social.Schoolmate, social.Other}
	used := map[uint64]bool{}
	var batch []core.Mutation
	for len(batch) < n {
		var m core.Mutation
		switch r.Intn(3) {
		case 0:
			u, v := graph.NodeID(r.Intn(nodes)), graph.NodeID(r.Intn(nodes))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			inter := make([]float64, social.NumInteractionDims)
			for d := range inter {
				inter[d] = float64(r.Intn(20))
			}
			m = core.Mutation{Kind: core.MutAdd, U: u, V: v, Label: labels[r.Intn(len(labels))],
				Revealed: r.Intn(2) == 0, Interactions: inter}
		case 1:
			e := edges[r.Intn(len(edges))]
			m = core.Mutation{Kind: core.MutRemove, U: e.U, V: e.V}
		default:
			e := edges[r.Intn(len(edges))]
			m = core.Mutation{Kind: core.MutRelabel, U: e.U, V: e.V, Label: labels[r.Intn(len(labels))],
				Revealed: r.Intn(3) > 0}
		}
		if k := (graph.Edge{U: m.U, V: m.V}).Key(); !used[k] {
			used[k] = true
			batch = append(batch, m)
		}
	}
	return batch
}

// TestSimulatedServer is a seeded simulation of one WAL server on an
// in-memory filesystem. A schedule drawn from the seed interleaves
// mutation batches (one of them poisoned: it adds an edge that exists),
// artifact reloads between two mutable artifacts, checkpoints and crashes
// (every later write fails, unsynced bytes are dropped, and New boots on
// the same filesystem). A control server that never crashes takes the
// same accepted steps. After every step the two hold the same state and
// mutation epoch, bit for bit; every few steps the control equals a
// frozen recompute under the training run of the artifact it last loaded.
func TestSimulatedServer(t *testing.T) {
	arts := simArtifacts(t)
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			start := time.Now()
			r := rand.New(rand.NewSource(seed))
			const steps = 60
			poisonAt := 10 + r.Intn(steps-20)
			fsys := wal.NewMemFS()
			live := simServer(t, fsys, arts[0].path)
			defer func() { live.Close() }()
			control, err := New(Config{Artifact: arts[0].path, Logger: discardLogger()})
			if err != nil {
				t.Fatal(err)
			}
			defer control.Close()
			cur, crashes, reloads := 0, 0, 0
			for step := 0; step < steps; step++ {
				var what string
				switch k := r.Intn(20); {
				case step == poisonAt:
					what = "poisoned batch"
					batch := simBatch(r, control.current(), 1)
					e := control.current().ds.G.Edges()[0]
					if e.Key() == (graph.Edge{U: batch[0].U, V: batch[0].V}).Key() {
						e = control.current().ds.G.Edges()[1]
					}
					batch = append(batch, core.Mutation{Kind: core.MutAdd, U: e.U, V: e.V, Label: social.Family})
					if _, err := live.Mutate(batch, true); err == nil {
						t.Fatalf("step %d: a batch adding the existing edge {%d,%d} was accepted", step, e.U, e.V)
					}
				case k < 12:
					batch := simBatch(r, control.current(), 1+r.Intn(3))
					what = fmt.Sprintf("batch of %d", len(batch))
					if _, err := live.Mutate(batch, true); err != nil {
						t.Fatalf("step %d: live: %v", step, err)
					}
					if _, err := control.Mutate(batch, true); err != nil {
						t.Fatalf("step %d: control: %v", step, err)
					}
				case k < 14:
					what = "reload"
					cur = 1 - cur
					ws, _ := live.WALStats()
					if _, err := live.ReloadArtifact(arts[cur].path); err != nil {
						t.Fatalf("step %d: live reload: %v", step, err)
					}
					if _, err := control.ReloadArtifact(arts[cur].path); err != nil {
						t.Fatalf("step %d: control reload: %v", step, err)
					}
					// The reload is durable once its forced checkpoint lands.
					for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
						if now, _ := live.WALStats(); now.Checkpoints > ws.Checkpoints {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("step %d: no checkpoint after the reload", step)
						}
					}
					reloads++
				case k < 17:
					what = "checkpoint"
					if err := live.CheckpointNow(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				default:
					what = "crash"
					fsys.FailAfter(1) // nothing the dying process does reaches the disk
					live.Close()
					fsys.Crash()
					fsys.FailAfter(0)
					live = simServer(t, fsys, arts[0].path)
					crashes++
				}
				ctx := fmt.Sprintf("step %d (%s)", step, what)
				got, want := live.current(), control.current()
				assertStateEqual(t, got, want, ctx)
				if got.epoch != want.epoch {
					t.Fatalf("%s: epoch %d, control %d", ctx, got.epoch, want.epoch)
				}
				if step%5 == 4 {
					frozen, err := arts[cur].pipe.RunFrozen(want.ds, arts[cur].res)
					if err != nil {
						t.Fatal(err)
					}
					assertStateEqual(t, want, &snapshot{ds: want.ds, res: frozen}, ctx+": control vs RunFrozen")
				}
			}
			t.Logf("%d steps, %d crashes, %d reloads, epoch %d, in %v",
				steps, crashes, reloads, control.current().epoch, time.Since(start))
		})
	}
}
