package core

import (
	"fmt"

	"locec/internal/gbdt"
	"locec/internal/nn"
	"locec/internal/parallel"
	"locec/internal/social"
	"locec/internal/tensor"
)

// CommunityClassifier is the Phase II model contract. Implementations
// provide each community's class probabilities: its classification result
// r_C, which Phase III reads (Eq. 4) and community-level evaluation and
// Fig. 13 score.
type CommunityClassifier interface {
	// Name identifies the variant ("LoCEC-CNN", "LoCEC-XGB").
	Name() string
	// Fit trains on the labeled communities.
	Fit(ds *social.Dataset, comms []*LocalCommunity, labels []social.Label) error
	// Classify fills Probs on every community in place.
	Classify(ds *social.Dataset, comms []*LocalCommunity)
}

// CNNClassifier wraps the CommCNN network of Fig. 8.
type CNNClassifier struct {
	// K is the feature-matrix row budget (paper's parameter study: 20).
	K int
	// Filters/Hidden size the network; Epochs/BatchSize/LR/Workers tune
	// training. Zero values take sensible defaults. Workers 0 means
	// GOMAXPROCS, and the fitted weights differ between worker counts
	// (nn.TrainConfig.Workers): set it for a model that must come out the
	// same on machines with different core counts.
	Filters, Hidden int
	Epochs          int
	BatchSize       int
	LR              float64
	Workers         int
	Seed            int64
	// ShuffleRows is the row-ordering ablation: ignore tightness and
	// place members in seeded random order (not the paper's algorithm).
	ShuffleRows bool

	net *nn.Network
	// features is the column width the network was built for, recorded at
	// Fit/LoadModel time so SaveModel can rebuild the architecture.
	features int
}

// Name implements CommunityClassifier.
func (c *CNNClassifier) Name() string { return "LoCEC-CNN" }

func (c *CNNClassifier) defaults() {
	if c.K <= 0 {
		c.K = 20
	}
	if c.Filters <= 0 {
		c.Filters = nn.DefaultCommCNNFilters
	}
	if c.Hidden <= 0 {
		c.Hidden = nn.DefaultCommCNNHidden
	}
	if c.Epochs <= 0 {
		c.Epochs = 12
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 0.01
	}
}

// Fit implements CommunityClassifier. The feature matrices are built one
// contiguous share per worker, into one slab of matrices and one of tensor
// headers per share.
func (c *CNNClassifier) Fit(ds *social.Dataset, comms []*LocalCommunity, labels []social.Label) error {
	c.defaults()
	if len(comms) == 0 {
		return fmt.Errorf("core: no labeled communities to train on")
	}
	features := matrixWidth(ds)
	net, err := nn.NewCommCNN(nn.CommCNNConfig{
		K: c.K, Features: features, Classes: social.NumLabels,
		Filters: c.Filters, Hidden: c.Hidden, Seed: c.Seed,
	})
	if err != nil {
		return err
	}
	xs := make([]*tensor.Tensor, len(comms))
	ys := make([]int, len(comms))
	size := c.K * features
	parallel.For(len(comms), 0, func(lo, hi int) {
		var s matrixScratch
		slab, ts := make([]float64, (hi-lo)*size), make([]tensor.Tensor, hi-lo)
		for i := lo; i < hi; i++ {
			a := (i - lo) * size
			ts[i-lo] = tensor.Tensor{C: 1, H: c.K, W: features, Data: slab[a : a+size : a+size]}
			s.fill(ts[i-lo].Data, ds, comms[i], c.K, c.ShuffleRows, c.Seed)
			xs[i], ys[i] = &ts[i-lo], int(labels[i])
		}
	})
	net.Fit(xs, ys, nn.TrainConfig{
		Epochs: c.Epochs, BatchSize: c.BatchSize, Seed: c.Seed + 1,
		Workers: c.Workers, Optimizer: nn.NewAdam(c.LR),
	})
	c.net = net
	c.features = features
	return nil
}

// Classify implements CommunityClassifier. Inference is embarrassingly
// parallel; each worker takes one contiguous share and a cloned network
// (activation state is per-instance). A community's output does not depend
// on which worker ran it, so Workers — a training setting — plays no part.
// A worker reuses one input tensor and writes every probability vector of
// its share into one slab, handing out capped views (s[a:b:b]).
func (c *CNNClassifier) Classify(ds *social.Dataset, comms []*LocalCommunity) {
	nc := c.net.Classes
	parallel.For(len(comms), 0, func(lo, hi int) {
		net := &nn.Network{Root: c.net.Root.Clone(), Classes: nc}
		var s matrixScratch
		x := tensor.NewTensor(1, c.K, matrixWidth(ds))
		slab := make([]float64, (hi-lo)*nc)
		for i, comm := range comms[lo:hi] {
			s.fill(x.Data, ds, comm, c.K, c.ShuffleRows, c.Seed)
			probs := slab[i*nc : (i+1)*nc : (i+1)*nc]
			net.PredictInto(x, probs)
			comm.Probs = probs // r_C = softmax vector (paper, Phase III)
		}
	})
}

// XGBClassifier is the LoCEC-XGB variant: mean/std pooled community
// vectors into a boosted-tree model; r_C is its softmax class vector.
type XGBClassifier struct {
	// Config tunes the GBDT; Classes is forced to NumLabels.
	Config gbdt.Config
	// Seed overrides Config.Seed when non-zero.
	Seed int64
	// Workers has no effect and nothing reads it, like gbdt.Config.Workers
	// (see there): the trainer's width is GOMAXPROCS. The field is still
	// declared because benchmark/batch.go copies it; removing it is a
	// [benchmark] follow-up (ROADMAP 1(a)/(b)).
	Workers int

	model *gbdt.Model
}

// Name implements CommunityClassifier.
func (x *XGBClassifier) Name() string { return "LoCEC-XGB" }

// Fit implements CommunityClassifier. The training rows are pooled one
// contiguous share per worker, each into its own pooler and slab.
func (x *XGBClassifier) Fit(ds *social.Dataset, comms []*LocalCommunity, labels []social.Label) error {
	if len(comms) == 0 {
		return fmt.Errorf("core: no labeled communities to train on")
	}
	w := pooledWidth(ds)
	X := make([][]float64, len(comms))
	y := make([]int, len(comms))
	parallel.For(len(comms), 0, func(lo, hi int) {
		p := newPooler(ds, comms[lo:hi])
		slab := make([]float64, (hi-lo)*w)
		for i := lo; i < hi; i++ {
			a := (i - lo) * w
			X[i] = slab[a : a+w : a+w]
			copy(X[i], p.features(ds, comms[i]))
			y[i] = int(labels[i])
		}
	})
	cfg := x.Config
	cfg.Classes = social.NumLabels
	if x.Seed != 0 {
		cfg.Seed = x.Seed
	}
	model, err := gbdt.Train(X, y, cfg)
	if err != nil {
		return err
	}
	x.model = model
	return nil
}

// Classify implements CommunityClassifier. Each community walks the
// forest once (gbdt.Model.PredictProbaInto). A worker block writes every
// probability vector of its share into one slab it owns and hands out
// capped views (s[a:b:b]), so an append to Probs copies instead of
// hitting its neighbour.
func (x *XGBClassifier) Classify(ds *social.Dataset, comms []*LocalCommunity) {
	parallel.For(len(comms), 0, func(lo, hi int) {
		nc := x.model.NumClasses()
		p := newPooler(ds, comms[lo:hi])
		slab := make([]float64, (hi-lo)*nc)
		for i, comm := range comms[lo:hi] {
			comm.Probs = slab[i*nc : (i+1)*nc : (i+1)*nc]
			x.model.PredictProbaInto(p.features(ds, comm), comm.Probs)
		}
	})
}
