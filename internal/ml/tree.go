package ml

import (
	"math"
	"math/rand"
	"slices"
)

// TreeConfig controls CART induction.
type TreeConfig struct {
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinSamplesLeaf is the minimum number of training rows a leaf may
	// hold; splits producing smaller children are rejected.
	MinSamplesLeaf int
	// MTry is the number of features sampled (without replacement) as
	// split candidates at each node; 0 means sqrt(total features).
	MTry int
}

// node is one node of a CART tree, stored in the tree's flat node slice.
// Leaves have feature == -1 and carry the positive-class probability.
type node struct {
	feature   int     // split feature, or -1 for a leaf
	threshold float64 // go left when x[feature] <= threshold
	left      int32   // index of left child
	right     int32   // index of right child
	prob      float64 // leaf: P(class 1)
}

// Tree is a trained CART binary classification tree.
type Tree struct {
	nodes []node
}

// rankedData is a training Dataset with every feature column ranked
// once, so split search never sorts: vals[f] holds column f's distinct
// values in ascending order and rank[f*n+row] the index of the row's
// value in vals[f]. A constant column keeps vals[f] empty: it never
// splits.
type rankedData struct {
	x    [][]float64
	y    []int
	n    int
	rank []int32
	vals [][]float64
}

// rankColumns ranks every feature column of ds on up to workers
// goroutines, rejecting non-finite values (a Dataset built without
// NewDataset may hold them).
func rankColumns(ds *Dataset, workers int) (*rankedData, error) {
	n, nf := ds.Len(), ds.Features()
	d := &rankedData{x: ds.X, y: ds.Y, n: n, rank: make([]int32, n*nf), vals: make([][]float64, nf)}
	errs := make([]error, nf)
	parallelFor(workers, nf, func() func(int) {
		col, sorted := make([]float64, n), make([]float64, n)
		return func(f int) { errs[f] = d.rankColumn(f, col, sorted) }
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// rankColumn fills column f's vals and ranks; col and sorted are
// n-row scratch.
func (d *rankedData) rankColumn(f int, col, sorted []float64) error {
	constant := true
	for i, row := range d.x {
		v := row[f]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errNonFinite(i, f, v)
		}
		col[i] = v
		constant = constant && v == col[0]
	}
	if constant {
		return nil // vals[f] stays empty: the column never splits
	}
	copy(sorted, col)
	slices.Sort(sorted)
	distinct := slices.Compact(sorted)
	d.vals[f] = slices.Clone(distinct)
	ranks := d.rank[f*d.n : (f+1)*d.n]
	for i, v := range col {
		k, _ := slices.BinarySearch(distinct, v)
		ranks[i] = int32(k)
	}
	return nil
}

// treeBuilder induces CART trees on one rankedData. It owns every
// scratch buffer the induction needs, so growing a tree allocates only
// the finished node slice; one builder serves one goroutine.
type treeBuilder struct {
	d       *rankedData
	cfg     TreeConfig
	mtry    int
	minLeaf int
	rng     *rand.Rand
	perm    []int    // the node's feature permutation
	rows    []int32  // the tree's rows, partitioned in place per node
	tally   []uint64 // per rank of the feature being swept: rows | positives<<32; zero between features
	nodes   []node
}

func newTreeBuilder(d *rankedData, cfg TreeConfig) *treeBuilder {
	nf := len(d.vals)
	mtry := cfg.MTry
	if mtry <= 0 {
		mtry = max(int(math.Sqrt(float64(nf))), 1)
	}
	return &treeBuilder{
		d:       d,
		cfg:     cfg,
		mtry:    mtry,
		minLeaf: max(cfg.MinSamplesLeaf, 1),
		rng:     rand.New(rand.NewSource(0)),
		perm:    make([]int, nf),
		rows:    make([]int32, d.n),
		tally:   make([]uint64, d.n), // a column has at most n distinct values
	}
}

// bootstrapTree induces the tree a forest derives from seed: a
// generator seeded with it draws a bootstrap sample of the rows (with
// replacement), then drives the per-node feature subsampling.
func (b *treeBuilder) bootstrapTree(seed int64) *Tree {
	b.rng.Seed(seed)
	for i := range b.rows {
		b.rows[i] = int32(b.rng.Intn(b.d.n))
	}
	return b.induce(b.rows)
}

// induce grows a tree on rows (which it reorders) with Gini impurity.
func (b *treeBuilder) induce(rows []int32) *Tree {
	b.nodes = b.nodes[:0]
	b.grow(rows, 0)
	return &Tree{nodes: slices.Clone(b.nodes)}
}

// grow builds the subtree over rows and returns its node index.
// Children are appended after their parent, left subtree first.
func (b *treeBuilder) grow(rows []int32, depth int) int32 {
	pos := 0
	for _, r := range rows {
		pos += b.d.y[r]
	}
	n := len(rows)
	id := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feature: -1, prob: float64(pos) / float64(n)})

	if pos == 0 || pos == n {
		return id // pure
	}
	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		return id
	}
	if n < 2*b.minLeaf {
		return id
	}
	feat, thr, ok := b.bestSplit(rows, pos)
	if !ok {
		return id
	}

	// Partition in place. Row order within a node never matters: the
	// split search depends only on the multiset of rows.
	i, j := 0, n
	for i < j {
		if b.d.x[rows[i]][feat] <= thr {
			i++
		} else {
			j--
			rows[i], rows[j] = rows[j], rows[i]
		}
	}
	l := b.grow(rows[:i], depth+1)
	r := b.grow(rows[i:], depth+1)
	nd := &b.nodes[id]
	nd.feature = feat
	nd.threshold = thr
	nd.left = l
	nd.right = r
	return id
}

// bestSplit searches for the split with the lowest weighted Gini
// impurity. It considers mtry randomly sampled candidate features but —
// like standard Random Forest implementations — keeps inspecting further
// features when the sampled ones admit no valid partition (sparse
// fingerprint vectors routinely make a 16-feature sample all-constant
// within a node), declaring a leaf only when no feature splits the node.
// pos is the positive count over rows.
//
// Per feature it counts rows and positives per rank, then sweeps the
// ranks present in the node in ascending order: each boundary between
// consecutive present values is one candidate threshold (see
// splitThreshold). That visits exactly the boundaries of a sweep over the
// node's values sorted, in the same order, so ties resolve the same way.
func (b *treeBuilder) bestSplit(rows []int32, pos int) (feature int, threshold float64, ok bool) {
	n := len(rows)
	bestGini := math.Inf(1)
	parentGini := giniImpurity(pos, n)

	// The feature permutation, drawn exactly as rand.Perm draws it so
	// the generator's stream does not depend on the buffer reuse.
	perm := b.perm
	for i := range perm {
		j := b.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	tally := b.tally
	for tried, f := range perm {
		// Stop after the mtry quota once a usable split exists.
		if tried >= b.mtry && ok {
			break
		}
		vals := b.d.vals[f]
		if len(vals) < 2 {
			continue
		}
		ranks := b.d.rank[f*b.d.n : (f+1)*b.d.n]
		lo, hi := int32(len(vals)), int32(-1)
		for _, r := range rows {
			k := ranks[r]
			tally[k] += 1 | uint64(b.d.y[r])<<32
			lo, hi = min(lo, k), max(hi, k)
		}
		leftN, leftPos, prev := int(uint32(tally[lo])), int(tally[lo]>>32), lo
		tally[lo] = 0
		for k := lo + 1; k <= hi; k++ {
			t := tally[k]
			if t == 0 {
				continue
			}
			if rightN := n - leftN; leftN >= b.minLeaf && rightN >= b.minLeaf {
				rightPos := pos - leftPos
				g := (float64(leftN)*giniImpurity(leftPos, leftN) +
					float64(rightN)*giniImpurity(rightPos, rightN)) / float64(n)
				// Only impurity-decreasing splits are valid.
				if g < bestGini && g < parentGini {
					bestGini = g
					feature = f
					threshold = splitThreshold(vals[prev], vals[k])
					ok = true
				}
			}
			leftN += int(uint32(t))
			leftPos += int(t >> 32)
			tally[k] = 0
			prev = k
		}
	}
	return feature, threshold, ok
}

// splitThreshold is the threshold between consecutive distinct values
// a < b: their midpoint — unless that rounds onto b (neighbouring
// floats) or overflows, where it is a. Either way a goes left and b
// right, so both children are non-empty and induction terminates.
func splitThreshold(a, b float64) float64 {
	if t := (a + b) / 2; a <= t && t < b {
		return t
	}
	return a
}

// giniImpurity returns the Gini impurity of a node with pos positives out
// of n rows.
func giniImpurity(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// PredictProb returns the positive-class probability for x.
func (t *Tree) PredictProb(x []float64) float64 {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.prob
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// Predict returns the predicted class (0 or 1) for x.
func (t *Tree) Predict(x []float64) int {
	if t.PredictProb(x) >= 0.5 {
		return 1
	}
	return 0
}

// NodeCount returns the number of nodes in the tree.
func (t *Tree) NodeCount() int { return len(t.nodes) }

// Depth returns the depth of the tree (a lone root has depth 0).
func (t *Tree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var walk func(i int32) int
	walk = func(i int32) int {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return 0
		}
		l := walk(nd.left)
		r := walk(nd.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}
