package nn

import (
	"fmt"
	"math/rand"
)

// CommCNNConfig describes the CommCNN model of the paper's Fig. 8.
//
// The input is the k×(|I|+|f|) community feature matrix (one channel).
// Three convolution branches process it:
//
//   - square: 3×3 same-padded conv, followed by two "Square Convolution
//     Modules" (3×3 conv + 2×2 max pool each), then flatten;
//   - wide: one 1×F kernel spanning all features of a node, then a 1×1
//     conv, then global max pooling;
//   - long: one k×1 kernel spanning all nodes of a feature column, then a
//     1×1 conv, then global max pooling.
//
// The concatenated branch outputs pass through two fully connected layers
// and a softmax over the relationship classes.
type CommCNNConfig struct {
	K        int // rows of the feature matrix (top-k members by tightness)
	Features int // columns: |I| + |f|
	Classes  int // relationship types
	// Filters is the channel width of every convolution (paper does not
	// publish widths; 8 keeps the model small). Defaults to 8.
	Filters int
	// Hidden is the width of the first fully connected layer. Defaults 64.
	Hidden int
	// Seed drives weight initialization.
	Seed int64
}

// Default CommCNN widths, shared with callers (e.g. core.CNNClassifier)
// that persist the effective architecture and must resolve zero values the
// same way NewCommCNN does.
const (
	DefaultCommCNNFilters = 8
	DefaultCommCNNHidden  = 64
)

func (c *CommCNNConfig) defaults() {
	if c.Filters <= 0 {
		c.Filters = DefaultCommCNNFilters
	}
	if c.Hidden <= 0 {
		c.Hidden = DefaultCommCNNHidden
	}
}

// NewCommCNN assembles the CommCNN network per Fig. 8 of the paper.
func NewCommCNN(cfg CommCNNConfig) (*Network, error) {
	cfg.defaults()
	if cfg.K < 2 || cfg.Features < 1 || cfg.Classes < 2 {
		return nil, fmt.Errorf("nn: invalid CommCNN config k=%d features=%d classes=%d",
			cfg.K, cfg.Features, cfg.Classes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nf := cfg.Filters

	// Square branch: 3×3 conv, then two Square Convolution Modules
	// (3×3 conv + max pool), per "7 layers in square convolutions".
	square := NewSequential(
		NewConv2D("sq1", 1, nf, 3, 3, Same, rng),
		NewReLU(),
		// Square Convolution Module #1
		NewConv2D("sq2", nf, nf, 3, 3, Same, rng),
		NewReLU(),
		NewMaxPool2(),
		// Square Convolution Module #2
		NewConv2D("sq3", nf, nf, 3, 3, Same, rng),
		NewReLU(),
		NewMaxPool2(),
		NewFlatten(),
	)

	// Wide branch: 1×F kernel comparing all features of one node,
	// then 1×1 conv and global max pooling ("3 layers").
	wide := NewSequential(
		NewConv2D("wd1", 1, nf, 1, cfg.Features, Valid, rng),
		NewReLU(),
		NewConv2D("wd2", nf, nf, 1, 1, Valid, rng),
		NewGlobalMaxPool(),
	)

	// Long branch: k×1 kernel comparing one feature across all nodes,
	// then 1×1 conv and global max pooling.
	long := NewSequential(
		NewConv2D("lg1", 1, nf, cfg.K, 1, Valid, rng),
		NewReLU(),
		NewConv2D("lg2", nf, nf, 1, 1, Valid, rng),
		NewGlobalMaxPool(),
	)

	branches := NewParallelConcat(square, wide, long)
	_, _, concatWidth := branches.OutShape(1, cfg.K, cfg.Features)

	root := NewSequential(
		branches,
		NewDense("fc1", concatWidth, cfg.Hidden, rng),
		NewReLU(),
		NewDense("fc2", cfg.Hidden, cfg.Classes, rng),
	)
	return NewNetwork(root, cfg.Classes), nil
}
