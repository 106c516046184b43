package ml

import (
	"runtime"
	"sync"
)

// FlatConfig controls the compact flattened serving representation of a
// forest (the struct-of-arrays layout every prediction path traverses).
// The zero value is the exact float64 layout: predictions are then
// bit-identical to walking the trained trees. The quantization knobs
// trade bounded prediction drift for smaller cache-resident arrays and
// smaller serialized forests: fingerprint features are small integers
// and CART thresholds are midpoints of observed values, so float32
// storage is in practice exact on this data, while a leaf cap collapses
// the deepest splits into their parent's training probability.
type FlatConfig struct {
	// Quantize stores thresholds and leaf probabilities as float32,
	// halving the threshold array. Comparisons run in float32.
	Quantize bool
	// MaxLeaves caps the number of leaves each tree contributes to the
	// flat layout; trees over the cap are pruned bottom-up (deepest
	// both-leaf split first) before flattening. 0 means unlimited. The
	// trained trees themselves are never modified.
	MaxLeaves int
}

// flatForest is a struct-of-arrays flattening of every tree in a forest
// into four parallel arrays. Traversal touches one small field array per
// step instead of striding over 40-byte node structs, which keeps far
// more of the forest in cache when thousands of fingerprints stream
// through the bank. Node indices are absolute into the flat arrays;
// roots[t] is the root of tree t.
//
// For leaves feature is -1 and threshold carries the leaf's positive
// probability (left/right are unused), so a traversal step and a leaf
// read hit the same two arrays. Exactly one of threshold/threshold32 is
// populated: the float32 array when FlatConfig.Quantize selected the
// quantized layout, the float64 array otherwise.
type flatForest struct {
	feature     []int32
	threshold   []float64
	threshold32 []float32
	left        []int32
	right       []int32
	roots       []int32
}

// flatten builds the struct-of-arrays layout from trained trees,
// applying the FlatConfig's leaf cap and precision.
func flatten(trees []*Tree, cfg FlatConfig) *flatForest {
	if cfg.MaxLeaves > 0 {
		pruned := make([]*Tree, len(trees))
		for i, t := range trees {
			pruned[i] = pruneToLeafCap(t, cfg.MaxLeaves)
		}
		trees = pruned
	}
	total := 0
	for _, t := range trees {
		total += len(t.nodes)
	}
	f := &flatForest{
		feature: make([]int32, total),
		left:    make([]int32, total),
		right:   make([]int32, total),
		roots:   make([]int32, len(trees)),
	}
	if cfg.Quantize {
		f.threshold32 = make([]float32, total)
	} else {
		f.threshold = make([]float64, total)
	}
	setThr := func(j int32, v float64) {
		if cfg.Quantize {
			f.threshold32[j] = float32(v)
		} else {
			f.threshold[j] = v
		}
	}
	base := int32(0)
	for ti, t := range trees {
		f.roots[ti] = base
		for i, nd := range t.nodes {
			j := base + int32(i)
			f.feature[j] = int32(nd.feature)
			if nd.feature < 0 {
				setThr(j, nd.prob)
				continue
			}
			setThr(j, nd.threshold)
			f.left[j] = base + nd.left
			f.right[j] = base + nd.right
		}
		base += int32(len(t.nodes))
	}
	return f
}

// pruneToLeafCap returns t with at most maxLeaves leaves: while over
// the cap, the deepest split whose children are both leaves (lowest
// node index on ties — deterministic) collapses into a leaf carrying
// its own training probability, which every internal node records at
// induction time. The input tree is never modified; if it is already
// under the cap it is returned as-is.
func pruneToLeafCap(t *Tree, maxLeaves int) *Tree {
	leaves := 0
	for i := range t.nodes {
		if t.nodes[i].feature < 0 {
			leaves++
		}
	}
	if leaves <= maxLeaves || len(t.nodes) == 0 {
		return t
	}
	nodes := append([]node(nil), t.nodes...)
	depth := make([]int, len(nodes))
	var walk func(i int32, d int)
	walk = func(i int32, d int) {
		depth[i] = d
		if nodes[i].feature >= 0 {
			walk(nodes[i].left, d+1)
			walk(nodes[i].right, d+1)
		}
	}
	walk(0, 0)
	for leaves > maxLeaves {
		best := -1
		for i := range nodes {
			nd := &nodes[i]
			if nd.feature < 0 || nodes[nd.left].feature >= 0 || nodes[nd.right].feature >= 0 {
				continue
			}
			if best < 0 || depth[i] > depth[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		nodes[best].feature = -1
		leaves--
	}
	// Compact the surviving nodes into a fresh tree (collapsed subtrees
	// would otherwise ride along as dead array entries).
	out := &Tree{nodes: make([]node, 0, 2*maxLeaves)}
	var compact func(i int32) int32
	compact = func(i int32) int32 {
		id := int32(len(out.nodes))
		out.nodes = append(out.nodes, nodes[i])
		if nodes[i].feature >= 0 {
			l := compact(nodes[i].left)
			r := compact(nodes[i].right)
			out.nodes[id].left = l
			out.nodes[id].right = r
		}
		return id
	}
	compact(0)
	return out
}

// votesRange counts positive votes of trees [lo, hi) for sample x.
func (f *flatForest) votesRange(x []float64, lo, hi int) int {
	if f.threshold32 != nil {
		return f.votesRange32(x, lo, hi)
	}
	votes := 0
	for _, root := range f.roots[lo:hi] {
		i := root
		for f.feature[i] >= 0 {
			if x[f.feature[i]] <= f.threshold[i] {
				i = f.left[i]
			} else {
				i = f.right[i]
			}
		}
		if f.threshold[i] >= 0.5 {
			votes++
		}
	}
	return votes
}

// votesRange32 is votesRange over the quantized layout: the sample
// value converts to float32 at each step, so the comparison runs
// entirely in single precision.
func (f *flatForest) votesRange32(x []float64, lo, hi int) int {
	votes := 0
	for _, root := range f.roots[lo:hi] {
		i := root
		for f.feature[i] >= 0 {
			if float32(x[f.feature[i]]) <= f.threshold32[i] {
				i = f.left[i]
			} else {
				i = f.right[i]
			}
		}
		if f.threshold32[i] >= 0.5 {
			votes++
		}
	}
	return votes
}

// bytes returns the size of the flat serving arrays in bytes — what the
// compaction trades against: the quantized layout halves the threshold
// array and a leaf cap shrinks every array.
func (f *flatForest) bytes() int {
	n := len(f.feature)
	b := n*4*3 + len(f.roots)*4 // feature, left, right, roots
	if f.threshold32 != nil {
		return b + n*4
	}
	return b + n*8
}

// votes counts positive votes across all trees for sample x.
func (f *flatForest) votes(x []float64) int {
	return f.votesRange(x, 0, len(f.roots))
}

// minParallel is the smallest batch worth fanning across goroutines;
// below it the spawn cost dominates.
const minParallel = 8

// votesBatch fills out[i] with the positive vote count for xs[i],
// partitioning the samples across workers in contiguous chunks. Each
// output cell depends only on its own sample, so the result is
// bit-identical to a sequential loop.
func (f *flatForest) votesBatch(xs [][]float64, out []int, workers int) {
	n := len(xs)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minParallel {
		for i, x := range xs {
			out[i] = f.votes(x)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = f.votes(xs[i])
			}
		}(lo, hi)
	}
	wg.Wait()
}

// defaultWorkers resolves a worker-count knob: values <= 0 select
// GOMAXPROCS.
func defaultWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}
