package core

import (
	"math/rand"
	"slices"
	"testing"

	"locec/internal/graph"
	"locec/internal/social"
	"locec/internal/wechat"
)

// stageIEpoch is what one mutation epoch hands Stage I.
type stageIEpoch struct {
	ds             *social.Dataset // the mutated dataset
	old            []*EgoResult    // the egos before the epoch, grow provenance included
	dirty, touched []graph.NodeID
	ov             *graph.Overlay
}

// BenchmarkStageISeededVsFull is the like-for-like price of seeded replay
// (PR 7): the Stage I inputs of a chained schedule of one-edge epochs under
// Clauset — every epoch's egos are the previous epoch's seeded output, as on
// a live server — re-divided once by p.divideNodesSeeded and once by
// p.DivideNodes, the full re-division a global detector's epoch runs. Each
// mutation closes or opens a triangle, so besides the two endpoints (whose
// member sets change: always a full re-division) there is at least one
// bystander ego that may replay. No switch in product code selects between
// the two; run with -cpu 1,2.
func BenchmarkStageISeededVsFull(b *testing.B) {
	net, err := wechat.Generate(wechat.DefaultConfig(2000, 3))
	if err != nil {
		b.Fatal(err)
	}
	net.RunSurvey(0.5, 4)
	ds := net.Dataset
	p := NewPipeline(localConfig(DetectorClauset))
	egos := Divide(ds, p.cfg.Division)

	rng := rand.New(rand.NewSource(5))
	var epochs []stageIEpoch
	dirtyEgos, seededEgos := 0, 0
	for len(epochs) < 64 {
		u := graph.NodeID(rng.Intn(ds.G.NumNodes()))
		nb := ds.G.Neighbors(u)
		if len(nb) < 2 {
			continue
		}
		v, w := nb[rng.Intn(len(nb))], nb[rng.Intn(len(nb))]
		if v == w {
			continue
		}
		ov, ed := graph.NewOverlay(ds.G), ds.Edit()
		k := (graph.Edge{U: v, V: w}).Key()
		if ds.G.HasEdge(v, w) {
			err = ov.RemoveEdge(v, w)
			ed.Delete(k)
		} else {
			err = ov.AddEdge(v, w)
			ed.Set(k, social.Family, true, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		ep := stageIEpoch{old: egos, dirty: ov.DirtyNodes(), touched: []graph.NodeID{min(v, w), max(v, w)}, ov: ov}
		ep.ds, _ = ed.Commit(ov.Compact())
		egos = slices.Clone(egos)
		seededEgos += p.divideNodesSeeded(ep.ds, ep.old, egos, ep.dirty, ep.touched, ov)
		dirtyEgos += len(ep.dirty)
		epochs = append(epochs, ep)
		ds = ep.ds
	}

	dst := make([]*EgoResult, ds.G.NumNodes())
	b.Run("seeded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ep := epochs[i%len(epochs)]
			p.divideNodesSeeded(ep.ds, ep.old, dst, ep.dirty, ep.touched, ep.ov)
		}
		b.ReportMetric(float64(seededEgos)/float64(dirtyEgos), "seeded_share")
		b.ReportMetric(float64(dirtyEgos)/float64(len(epochs)), "dirty_egos/epoch")
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ep := epochs[i%len(epochs)]
			p.DivideNodes(ep.ds, dst, ep.dirty)
		}
	})
}
