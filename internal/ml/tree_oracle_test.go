package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortTree is the sort-based CART inducer the ranked one replaced, kept
// as its oracle: at every node and candidate feature it sorts the node's
// (value, label) pairs and sweeps the boundaries between distinct
// consecutive values. It grows the tree on every row of ds in order.
func sortTree(ds *Dataset, cfg TreeConfig, rng *rand.Rand) *Tree {
	mtry := cfg.MTry
	if mtry <= 0 {
		mtry = int(math.Sqrt(float64(ds.Features())))
		if mtry < 1 {
			mtry = 1
		}
	}
	b := &sortBuilder{ds: ds, cfg: cfg, mtry: mtry, rng: rng, tree: &Tree{}}
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	b.grow(idx, 0)
	return b.tree
}

type sortBuilder struct {
	ds   *Dataset
	cfg  TreeConfig
	mtry int
	rng  *rand.Rand
	tree *Tree
}

func (b *sortBuilder) grow(idx []int, depth int) int32 {
	pos := 0
	for _, i := range idx {
		pos += b.ds.Y[i]
	}
	n := len(idx)
	id := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, node{feature: -1, prob: float64(pos) / float64(n)})

	if pos == 0 || pos == n {
		return id
	}
	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		return id
	}
	minLeaf := b.cfg.MinSamplesLeaf
	if minLeaf < 1 {
		minLeaf = 1
	}
	if n < 2*minLeaf {
		return id
	}
	feat, thr, ok := b.bestSplit(idx, pos, minLeaf)
	if !ok {
		return id
	}
	left := make([]int, 0, n)
	right := make([]int, 0, n)
	for _, i := range idx {
		if b.ds.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	nd := &b.tree.nodes[id]
	nd.feature = feat
	nd.threshold = thr
	nd.left = l
	nd.right = r
	return id
}

func (b *sortBuilder) bestSplit(idx []int, pos, minLeaf int) (feature int, threshold float64, ok bool) {
	n := len(idx)
	bestGini := math.Inf(1)
	parentGini := giniImpurity(pos, n)

	type valLabel struct {
		v float64
		y int
	}
	vals := make([]valLabel, n)

	perm := b.rng.Perm(b.ds.Features())
	for tried, f := range perm {
		if tried >= b.mtry && ok {
			break
		}
		for i, row := range idx {
			vals[i] = valLabel{v: b.ds.X[row][f], y: b.ds.Y[row]}
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })

		leftN, leftPos := 0, 0
		for i := 0; i < n-1; i++ {
			leftN++
			leftPos += vals[i].y
			if vals[i].v == vals[i+1].v {
				continue
			}
			rightN := n - leftN
			if leftN < minLeaf || rightN < minLeaf {
				continue
			}
			rightPos := pos - leftPos
			g := (float64(leftN)*giniImpurity(leftPos, leftN) +
				float64(rightN)*giniImpurity(rightPos, rightN)) / float64(n)
			if g < bestGini && g < parentGini {
				bestGini = g
				feature = f
				threshold = splitThreshold(vals[i].v, vals[i+1].v)
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

// sortForest is the serial forest loop over sortTree: each tree grows on
// a bootstrap copy of the rows, drawn from a generator seeded from the
// master stream.
func sortForest(ds *Dataset, cfg ForestConfig) *Forest {
	nTrees := cfg.Trees
	if nTrees <= 0 {
		nTrees = DefaultTrees
	}
	master := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{trees: make([]*Tree, nTrees)}
	for i := range f.trees {
		rng := rand.New(rand.NewSource(master.Int63()))
		sample := &Dataset{X: make([][]float64, ds.Len()), Y: make([]int, ds.Len())}
		for j := range sample.X {
			row := rng.Intn(ds.Len())
			sample.X[j], sample.Y[j] = ds.X[row], ds.Y[row]
		}
		f.trees[i] = sortTree(sample, cfg.Tree, rng)
	}
	f.flat = flatten(f.trees, cfg.Flat)
	return f
}

// rankedTree grows one tree with the production inducer on every row of
// ds in order: the ranked counterpart of sortTree.
func rankedTree(t testing.TB, ds *Dataset, cfg TreeConfig, rng *rand.Rand) *Tree {
	t.Helper()
	d, err := rankColumns(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := newTreeBuilder(d, cfg)
	b.rng = rng
	for i := range b.rows {
		b.rows[i] = int32(i)
	}
	return b.induce(b.rows)
}

// treeDiff describes the first difference between two trees, comparing
// thresholds and probabilities by their bits; "" means identical.
func treeDiff(got, want *Tree) string {
	if len(got.nodes) != len(want.nodes) {
		return fmt.Sprintf("%d nodes, want %d", len(got.nodes), len(want.nodes))
	}
	for i := range got.nodes {
		g, w := got.nodes[i], want.nodes[i]
		if g.feature != w.feature || g.left != w.left || g.right != w.right ||
			math.Float64bits(g.threshold) != math.Float64bits(w.threshold) ||
			math.Float64bits(g.prob) != math.Float64bits(w.prob) {
			return fmt.Sprintf("node %d is %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// oracleDataset draws a randomized dataset of one shape. Every shape
// stresses a way the ranked sweep could part from the sorted one.
func oracleDataset(shape string, rng *rand.Rand) *Dataset {
	rows, feats := 2+rng.Intn(60), 1+rng.Intn(12)
	switch shape {
	case "one-row":
		rows = 1
	case "zero-features":
		feats = 0
	}
	x := make([][]float64, rows)
	y := make([]int, rows)
	for i := range x {
		x[i] = make([]float64, feats)
		y[i] = rng.Intn(2)
	}
	for f := 0; f < feats; f++ {
		kind := shape
		if shape == "mixed" {
			kind = []string{"ties", "constant", "continuous", "adjacent", "zeros", "huge"}[rng.Intn(6)]
		}
		base := rng.NormFloat64() * 100
		for i := range x {
			var v float64
			switch kind {
			case "ties", "one-row":
				v = float64(rng.Intn(4) - 1)
			case "constant", "all-constant":
				v = base
			case "continuous":
				v = rng.NormFloat64()
			case "adjacent":
				// Neighbouring floats: their midpoint rounds onto one of
				// them, so a row can sit exactly on the threshold.
				v = base
				for k := rng.Intn(3); k > 0; k-- {
					v = math.Nextafter(v, math.Inf(1))
				}
			case "zeros":
				v = []float64{math.Copysign(0, -1), 0, 1, -1}[rng.Intn(4)]
			case "huge":
				// Near ±MaxFloat64 the midpoint's sum overflows.
				v = math.MaxFloat64 / float64(1+rng.Intn(3))
				if rng.Intn(2) == 0 {
					v = -v
				}
			}
			x[i][f] = v
		}
	}
	ds, err := NewDataset(x, y)
	if err != nil {
		panic(err)
	}
	return ds
}

// TestRankedTreeEqualsSortOracle: the ranked inducer grows the same
// trees as the sort-based oracle, node for node and bit for bit, both
// on a whole dataset and inside forests, whose bootstrap samples repeat
// rows.
func TestRankedTreeEqualsSortOracle(t *testing.T) {
	shapes := []string{"ties", "constant", "all-constant", "zero-features", "one-row",
		"continuous", "adjacent", "zeros", "huge", "mixed"}
	configs := []TreeConfig{
		{},
		{MaxDepth: 1},
		{MaxDepth: 3},
		{MinSamplesLeaf: 3},
		{MinSamplesLeaf: 20},
		{MTry: 1},
		{MTry: 64},
		{MaxDepth: 4, MinSamplesLeaf: 2, MTry: 2},
	}
	for _, shape := range shapes {
		for trial := 0; trial < 12; trial++ {
			seed := int64(1000*len(shape) + trial)
			ds := oracleDataset(shape, rand.New(rand.NewSource(seed)))
			for ci, cfg := range configs {
				want := sortTree(ds, cfg, rand.New(rand.NewSource(seed)))
				got := rankedTree(t, ds, cfg, rand.New(rand.NewSource(seed)))
				if d := treeDiff(got, want); d != "" {
					t.Fatalf("%s trial %d config %d %+v: tree %s", shape, trial, ci, cfg, d)
				}
				fcfg := ForestConfig{Trees: 4, Tree: cfg, Seed: seed}
				wantF := sortForest(ds, fcfg)
				gotF, err := newForest(ds, fcfg, 2)
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantF.trees {
					if d := treeDiff(gotF.trees[i], wantF.trees[i]); d != "" {
						t.Fatalf("%s trial %d config %d %+v: forest tree %d %s", shape, trial, ci, cfg, i, d)
					}
				}
			}
		}
	}
}
