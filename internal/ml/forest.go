package ml

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForestConfig controls Random Forest training.
type ForestConfig struct {
	// Trees is the number of trees; 0 means DefaultTrees.
	Trees int
	// Tree configures the individual CART trees.
	Tree TreeConfig
	// Seed seeds the forest's randomness (bootstrap and feature
	// subsampling). Two forests trained with the same seed on the same
	// data are identical.
	Seed int64
	// Flat selects the flattened serving layout's compaction (float32
	// thresholds, leaf caps). The zero value keeps predictions
	// bit-identical to the trained trees; see FlatConfig.
	Flat FlatConfig
}

// DefaultTrees is the default forest size.
const DefaultTrees = 100

// Forest is a trained Random Forest binary classifier.
//
// After training the trees are additionally flattened into a
// struct-of-arrays node layout (see flatForest) that all prediction
// paths traverse; the per-tree representation is kept for
// introspection (NodeCount, Depth). A Forest is immutable after
// NewForest and safe for concurrent prediction.
type Forest struct {
	trees []*Tree
	flat  *flatForest
}

// NewForest trains a Random Forest on ds: each tree is induced on a
// bootstrap sample of the rows with per-node feature subsampling
// (Breiman, 2001). The feature columns are ranked once for the whole
// forest, and the trees train concurrently on up to GOMAXPROCS
// goroutines. Each tree's generator is seeded from the master stream
// in tree order before any tree trains, so the forest is bit-identical
// whatever the worker count or GOMAXPROCS.
func NewForest(ds *Dataset, cfg ForestConfig) (*Forest, error) {
	return newForest(ds, cfg, runtime.GOMAXPROCS(0))
}

// newForest is NewForest on at most workers goroutines.
func newForest(ds *Dataset, cfg ForestConfig, workers int) (*Forest, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("ml: training on empty dataset")
	}
	d, err := rankColumns(ds, workers)
	if err != nil {
		return nil, err
	}
	nTrees := cfg.Trees
	if nTrees <= 0 {
		nTrees = DefaultTrees
	}
	// One seed per tree from the master stream, so tree training is
	// independent of the others' consumption pattern and of scheduling.
	master := rand.New(rand.NewSource(cfg.Seed))
	seeds := make([]int64, nTrees)
	for i := range seeds {
		seeds[i] = master.Int63()
	}
	trees := make([]*Tree, nTrees)
	parallelFor(workers, nTrees, func() func(int) {
		b := newTreeBuilder(d, cfg.Tree)
		return func(i int) { trees[i] = b.bootstrapTree(seeds[i]) }
	})
	return &Forest{trees: trees, flat: flatten(trees, cfg.Flat)}, nil
}

// parallelFor calls body(i) for every i in [0, n) on up to workers
// goroutines (the caller's included) that pull indices from a shared
// cursor; newBody builds one goroutine's body and its scratch. Training
// runs here rather than on the classify pool: a pool worker busy on a
// tree would delay the classify helpers queued behind it.
func parallelFor(workers, n int, newBody func() func(i int)) {
	var next atomic.Int64
	run := func() {
		body := newBody()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			body(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// PredictProb returns the fraction of trees voting for the positive
// class.
func (f *Forest) PredictProb(x []float64) float64 {
	return float64(f.flat.votes(x)) / float64(len(f.trees))
}

// PredictProbBatch returns PredictProb for every sample of xs,
// evaluating samples in parallel across up to workers goroutines (<= 0
// selects GOMAXPROCS). Each output cell depends only on its own sample,
// so the slice is bit-identical to calling PredictProb in a loop.
func (f *Forest) PredictProbBatch(xs [][]float64, workers int) []float64 {
	if len(xs) == 0 {
		return nil
	}
	votes := make([]int, len(xs))
	f.flat.votesBatch(xs, votes, defaultWorkers(workers))
	out := make([]float64, len(xs))
	for i, v := range votes {
		out[i] = float64(v) / float64(len(f.trees))
	}
	return out
}

// Predict returns the majority-vote class for x.
func (f *Forest) Predict(x []float64) int {
	if f.PredictProb(x) >= 0.5 {
		return 1
	}
	return 0
}

// Trees returns the number of trees in the forest.
func (f *Forest) Trees() int { return len(f.trees) }

// FlatBytes returns the byte size of the flattened serving arrays —
// the cache-resident footprint the FlatConfig compaction shrinks.
func (f *Forest) FlatBytes() int { return f.flat.bytes() }
