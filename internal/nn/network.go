package nn

import (
	"math"
	"math/rand"
	"runtime"

	"locec/internal/tensor"
)

// Network wraps a root layer (usually a Sequential) with a softmax
// cross-entropy head and a mini-batch training loop.
type Network struct {
	Root    Layer
	Classes int
}

// NewNetwork creates a network whose root layer must output a (1,1,Classes)
// logit vector.
func NewNetwork(root Layer, classes int) *Network {
	return &Network{Root: root, Classes: classes}
}

// Predict returns the class probability vector for one sample. The result
// is freshly allocated (callers retain it); use PredictInto on hot paths.
func (n *Network) Predict(x *tensor.Tensor) []float64 {
	probs := make([]float64, n.Classes)
	n.PredictInto(x, probs)
	return probs
}

// PredictInto writes the class probability vector for one sample into dst
// (length Classes). The forward pass reuses the layers' scratch buffers,
// so steady-state inference performs no heap allocation.
func (n *Network) PredictInto(x *tensor.Tensor, dst []float64) {
	logits := n.Root.Forward(x)
	tensor.Softmax(logits.Data, dst)
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Seed      int64
	// Workers sets the data-parallel width within a batch; 0 means
	// GOMAXPROCS. Worker w takes samples w, w+Workers, … of each batch
	// through its own clone of the network, and the clones' gradients are
	// merged serially in worker order: a fit is reproducible (every
	// parameter ==) at any fixed count, and differs between counts, which
	// group the batch's floating-point sum differently (class predictions
	// are stable in practice). Left at 0, the trained weights are
	// therefore a function of the machine's core count.
	Workers int
}

// Fit trains the network on the given samples with softmax cross-entropy.
// Labels must lie in [0, Classes).
func (n *Network) Fit(xs []*tensor.Tensor, ys []int, cfg TrainConfig) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	t := n.NewTrainer(cfg)
	defer t.Close()
	for range cfg.Epochs {
		t.Epoch(xs, ys)
	}
}

// Trainer owns the per-run state of mini-batch training: the shuffled
// index permutation, per-worker network clones with detached gradient
// accumulators, per-worker softmax/gradient scratch, and (for Workers > 1)
// a pool of persistent worker goroutines fed over channels. Once every
// layer's scratch is warm — after the first batch — an Epoch performs zero
// heap allocations per sample.
//
// A Trainer is bound to the samples' shapes only through the layer scratch
// (which adapts automatically) and must not be used concurrently. Close
// releases the worker goroutines; it is a no-op for Workers == 1.
type Trainer struct {
	net     *Network
	cfg     TrainConfig
	workers int

	params      []*Param
	clones      []Layer    // [0] is net.Root itself
	cloneParams [][]*Param // [0] aliases params

	rng    *rand.Rand
	idx    []int
	losses []float64
	probs  [][]float64      // per-worker softmax scratch
	grads  []*tensor.Tensor // per-worker loss-gradient scratch

	// Worker pool (workers > 1): each worker picks its stride of the
	// current batch on a signal and acks on done. Channel handoff of
	// zero-size values never allocates, so the pool keeps the epoch loop
	// allocation-free.
	batch  []int
	xs     []*tensor.Tensor
	ys     []int
	work   []chan struct{}
	done   chan struct{}
	closed bool
}

// NewTrainer builds the persistent training state for this network. The
// caller is responsible for calling Close when done.
func (n *Network) NewTrainer(cfg TrainConfig) *Trainer {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = NewAdam(0.005)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t := &Trainer{
		net:     n,
		cfg:     cfg,
		workers: workers,
		params:  n.Root.Params(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		losses:  make([]float64, workers),
		probs:   make([][]float64, workers),
		grads:   make([]*tensor.Tensor, workers),
	}
	t.clones = make([]Layer, workers)
	t.cloneParams = make([][]*Param, workers)
	for w := 0; w < workers; w++ {
		if w == 0 {
			t.clones[w] = n.Root
			t.cloneParams[w] = t.params
		} else {
			t.clones[w] = cloneAndDetachParams(n.Root)
			t.cloneParams[w] = t.clones[w].Params()
		}
		t.probs[w] = make([]float64, n.Classes)
		t.grads[w] = tensor.NewTensor(1, 1, n.Classes)
	}
	if workers > 1 {
		t.done = make(chan struct{}, workers)
		t.work = make([]chan struct{}, workers)
		for w := 0; w < workers; w++ {
			t.work[w] = make(chan struct{}, 1)
			go t.workerLoop(w)
		}
	}
	return t
}

// Close stops the persistent workers. The Trainer must not be used again.
func (t *Trainer) Close() {
	if t.closed {
		return
	}
	t.closed = true
	for _, ch := range t.work {
		close(ch)
	}
}

// workerLoop processes worker w's stride of the current batch each time it
// is signaled, accumulating gradients into its private clone params.
func (t *Trainer) workerLoop(w int) {
	for range t.work[w] {
		loss := 0.0
		for bi := w; bi < len(t.batch); bi += t.workers {
			i := t.batch[bi]
			loss += t.lossAndGrad(w, t.xs[i], t.ys[i])
		}
		t.losses[w] = loss
		t.done <- struct{}{}
	}
}

// lossAndGrad runs forward + backward for one sample through worker w's
// clone (which shares weights with the live params for w == 0), returning
// the cross-entropy loss. All intermediates are scratch.
func (t *Trainer) lossAndGrad(w int, x *tensor.Tensor, label int) float64 {
	root := t.clones[w]
	logits := root.Forward(x)
	probs := t.probs[w]
	tensor.Softmax(logits.Data, probs)
	loss := -math.Log(math.Max(probs[label], 1e-12))
	grad := t.grads[w]
	for i := range probs {
		grad.Data[i] = probs[i]
		if i == label {
			grad.Data[i] -= 1
		}
	}
	root.Backward(grad)
	return loss
}

// Epoch runs one shuffled pass over the samples and returns the mean loss.
func (t *Trainer) Epoch(xs []*tensor.Tensor, ys []int) float64 {
	n := len(xs)
	if n == 0 || len(ys) != n {
		return 0
	}
	if len(t.idx) != n {
		t.idx = ensureInts(t.idx, n)
		for i := range t.idx {
			t.idx[i] = i
		}
	}
	t.xs, t.ys = xs, ys
	t.rng.Shuffle(n, func(i, j int) { t.idx[i], t.idx[j] = t.idx[j], t.idx[i] })
	totalLoss := 0.0
	for start := 0; start < n; start += t.cfg.BatchSize {
		end := start + t.cfg.BatchSize
		if end > n {
			end = n
		}
		batch := t.idx[start:end]
		// Sync clone weights with the live params.
		for w := 1; w < t.workers; w++ {
			for pi, p := range t.cloneParams[w] {
				copy(p.W, t.params[pi].W)
				p.ZeroGrad()
			}
		}
		if t.workers == 1 {
			loss := 0.0
			for _, i := range batch {
				loss += t.lossAndGrad(0, xs[i], ys[i])
			}
			totalLoss += loss
		} else {
			t.batch = batch
			for w := 0; w < t.workers; w++ {
				t.work[w] <- struct{}{}
			}
			for w := 0; w < t.workers; w++ {
				<-t.done
			}
			for _, l := range t.losses {
				totalLoss += l
			}
		}
		// Merge worker gradients into the live params and normalize.
		scale := 1.0 / float64(len(batch))
		for pi, p := range t.params {
			for w := 1; w < t.workers; w++ {
				wg := t.cloneParams[w][pi].G
				for i := range p.G {
					p.G[i] += wg[i]
				}
			}
			for i := range p.G {
				p.G[i] *= scale
			}
		}
		t.cfg.Optimizer.Step(t.params)
		for _, p := range t.params {
			p.ZeroGrad()
		}
	}
	return totalLoss / float64(n)
}

// cloneAndDetachParams deep-copies the layer tree INCLUDING fresh Param
// structs (so worker gradients do not race on the shared accumulators).
func cloneAndDetachParams(root Layer) Layer {
	c := root.Clone()
	detach(c)
	return c
}

// detach replaces every Param in the cloned tree with a private copy.
// Clone() shares Params by contract, so we rebuild them via reflection-free
// type switching on the known layer kinds.
func detach(l Layer) {
	switch v := l.(type) {
	case *Sequential:
		for _, sub := range v.Layers {
			detach(sub)
		}
	case *ParallelConcat:
		for _, sub := range v.Branches {
			detach(sub)
		}
	case *Conv2D:
		v.weight = copyParam(v.weight)
		v.bias = copyParam(v.bias)
	case *Dense:
		v.weight = copyParam(v.weight)
		v.bias = copyParam(v.bias)
	}
}

func copyParam(p *Param) *Param {
	np := newParam(p.Name, len(p.W))
	copy(np.W, p.W)
	return np
}
