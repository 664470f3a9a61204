package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"locec/internal/artifact"
	"locec/internal/bench"
	"locec/internal/core"
	"locec/internal/graph"
	"locec/internal/logreg"
	"locec/internal/social"
)

// Benchmarks run on bench.WeChatDataset — the shared surveyed synthetic
// fixture. Fixtures are cached per process and must stay read-only.

func BenchmarkPhase1Division500(b *testing.B) {
	ds := bench.WeChatDataset(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Divide(ds, core.DivisionConfig{})
	}
}

// BenchmarkDivide runs Phase I once per iteration under each registered
// detector — the only home of the three local detectors' and Louvain's
// division cost and allocation count (ROADMAP 3(d)).
func BenchmarkDivide(b *testing.B) {
	ds := bench.WeChatDataset(100)
	for _, name := range core.DetectorNames() {
		kind, err := core.ParseDetector(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Divide(ds, core.DivisionConfig{Detector: kind, Seed: 1})
			}
		})
	}
}

func BenchmarkPhase1SingleEgo(b *testing.B) {
	ds := bench.WeChatDataset(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Divide1(ds, graph.NodeID(i%ds.G.NumNodes()), core.DivisionConfig{})
	}
}

func BenchmarkFeatureMatrix(b *testing.B) {
	ds := bench.WeChatDataset(300)
	egos := core.Divide(ds, core.DivisionConfig{})
	var comm *core.LocalCommunity
	for _, er := range egos {
		for _, c := range er.Comms {
			if comm == nil || len(c.Members) > len(comm.Members) {
				comm = c
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FeatureMatrix(ds, comm, 20)
	}
}

func BenchmarkPooledFeatures(b *testing.B) {
	ds := bench.WeChatDataset(300)
	egos := core.Divide(ds, core.DivisionConfig{})
	comm := egos[0].Comms[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PooledFeatures(ds, comm)
	}
}

func BenchmarkFullPipelineXGB400(b *testing.B) {
	ds := bench.WeChatDataset(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPipeline(core.Config{Classifier: &core.XGBClassifier{Seed: 1}, Seed: 1})
		if _, err := p.Run(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyMutations is the write path's engine row: chained
// single-mutation epochs through Pipeline.ApplyMutations, each on the
// state the previous one left, in serve_write_10k's mix (60 % adds of a
// friend's friend, 25 % removes, 15 % relabels), on a mutable restore of a
// trained clauset + LoCEC-XGB result (artifact.New, EmbedDataset, Save,
// Load, Restore: how a server boots). One op is one epoch; the fixture and
// the schedule are built before the timer starts. Besides the mean it
// reports the epochs' p99, p99.9 and maximum ApplyStats.Duration, the
// pause an acknowledged mutation can wait on. The edit delta grows by
// about one key per epoch, so bytes per epoch grow slowly with the chain:
// compare runs of one fixed length (-benchtime 3000x). The 100 000-user
// fixture trains for minutes, so -short runs n = 10 000 only.
func BenchmarkApplyMutations(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n > 10_000 && testing.Short() {
				b.Skip("the 100 000-user fixture trains for minutes")
			}
			fx := writeFixture(b, n)
			ds, res := fx.ds, fx.res
			sched := newWriteSchedule(ds.G)
			muts := make([]core.Mutation, b.N)
			for i := range muts {
				muts[i] = sched.next()
			}
			epochs := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for _, m := range muts {
				nds, nres, stats, err := fx.pipe.ApplyMutations(ds, res, []core.Mutation{m})
				if err != nil {
					b.Fatalf("%s {%d,%d}: %v", m.Kind, m.U, m.V, err)
				}
				ds, res = nds, nres
				epochs = append(epochs, stats.Duration)
			}
			b.StopTimer()
			slices.Sort(epochs)
			ms := func(q float64) float64 { return float64(epochs[int(q*float64(len(epochs)-1))]) / 1e6 }
			b.ReportMetric(ms(0.99), "p99-ms")
			b.ReportMetric(ms(0.999), "p99.9-ms")
			b.ReportMetric(ms(1), "max-ms")
		})
	}
}

// writeRestore is one mutable restore; ApplyMutations leaves it as it was.
type writeRestore struct {
	ds   *social.Dataset
	res  *core.Result
	pipe *core.Pipeline
}

var (
	writeFixturesMu sync.Mutex
	writeFixtures   = map[int]*writeRestore{}
)

// writeFixture trains clauset + LoCEC-XGB on bench.WeChatDataset(n) once
// per process and restores it from its artifact bytes, dataset embedded.
func writeFixture(b *testing.B, n int) *writeRestore {
	writeFixturesMu.Lock()
	defer writeFixturesMu.Unlock()
	if fx := writeFixtures[n]; fx != nil {
		return fx
	}
	ds := bench.WeChatDataset(n)
	p := core.NewPipeline(core.Config{
		Division:   core.DivisionConfig{Detector: core.DetectorClauset, Seed: 1},
		Classifier: &core.XGBClassifier{Seed: 1},
		Combiner:   logreg.Config{Classes: social.NumLabels, Seed: 102},
		Seed:       1,
	})
	res, err := p.Run(ds)
	if err != nil {
		b.Fatal(err)
	}
	ex, err := res.Export()
	if err != nil {
		b.Fatal(err)
	}
	art, err := artifact.New(ds.G, ex, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := art.EmbedDataset(ds); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		b.Fatal(err)
	}
	if art, err = artifact.Load(bytes.NewReader(buf.Bytes())); err != nil {
		b.Fatal(err)
	}
	fx := &writeRestore{}
	if fx.ds, fx.res, fx.pipe, err = art.Restore(); err != nil || fx.pipe == nil {
		b.Fatalf("restore: mutable %v, %v", fx.pipe != nil, err)
	}
	writeFixtures[n] = fx
	return fx
}

// writeSchedule draws the mix against a mirror of the graph it mutates.
// Endpoints keep at least two friends, so no ego network empties.
type writeSchedule struct {
	state   uint64
	adj     [][]graph.NodeID
	present map[uint64]bool
}

func newWriteSchedule(g *graph.Graph) *writeSchedule {
	s := &writeSchedule{state: 1, adj: make([][]graph.NodeID, g.NumNodes()), present: map[uint64]bool{}}
	g.ForEachEdge(func(u, v graph.NodeID) {
		s.adj[u], s.adj[v] = append(s.adj[u], v), append(s.adj[v], u)
		s.present[(graph.Edge{U: u, V: v}).Key()] = true
	})
	return s
}

// rand is splitmix64.
func (s *writeSchedule) rand() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *writeSchedule) next() core.Mutation {
	labels := []social.Label{social.Colleague, social.Family, social.Schoolmate}
	for {
		p, u := s.rand()%100, graph.NodeID(s.rand()%uint64(len(s.adj)))
		if len(s.adj[u]) < 3 {
			continue
		}
		w := s.adj[u][s.rand()%uint64(len(s.adj[u]))]
		label := labels[s.rand()%uint64(len(labels))]
		switch {
		case p < 60:
			v := s.adj[w][s.rand()%uint64(len(s.adj[w]))]
			k := (graph.Edge{U: u, V: v}).Key()
			if v == u || s.present[k] {
				continue
			}
			s.adj[u], s.adj[v], s.present[k] = append(s.adj[u], v), append(s.adj[v], u), true
			return core.Mutation{Kind: core.MutAdd, U: u, V: v, Label: label, Revealed: true}
		case p < 85:
			if len(s.adj[w]) < 3 {
				continue
			}
			s.adj[u], s.adj[w] = drop(s.adj[u], w), drop(s.adj[w], u)
			delete(s.present, (graph.Edge{U: u, V: w}).Key())
			return core.Mutation{Kind: core.MutRemove, U: u, V: w}
		default:
			return core.Mutation{Kind: core.MutRelabel, U: u, V: w, Label: label, Revealed: true}
		}
	}
}

// drop removes x from xs, order not kept.
func drop(xs []graph.NodeID, x graph.NodeID) []graph.NodeID {
	for i, v := range xs {
		if v == x {
			xs[i] = xs[len(xs)-1]
			return xs[:len(xs)-1]
		}
	}
	return xs
}
