package ml

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// branchyVotes is the fused pass's oracle: every forest walks every
// sample on its own flat layout with a compare-and-branch per node
// (flatForest.votesRange, in the layout's precision), the walk the fused
// tile kernels ran before they went branch-free. votes[s*F+f] is forest
// f's positive vote count on row s.
func branchyVotes(forests []*Forest, m *SampleMatrix) []int32 {
	F := len(forests)
	votes := make([]int32, m.Rows()*F)
	for s := 0; s < m.Rows(); s++ {
		for f, forest := range forests {
			votes[s*F+f] = int32(forest.flat.votes(m.Row(s)))
		}
	}
	return votes
}

// edgeValues are the float values an order key must place exactly:
// signed zeros, infinities, NaN, subnormals, values float32 rounds to
// zero or infinity, and leaf probabilities on either side of 0.5 in
// float32.
var edgeValues = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 1e-50, -1e-50, 1e300, -1e300,
	0.5, 0.49999999999, 0.25, 1, -1,
}

// edgeValue draws an edge value half the time, else a value in the
// datasets' domain.
func edgeValue(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return edgeValues[rng.Intn(len(edgeValues))]
	}
	return rng.Float64()*1.4 - 0.2
}

// edgeForest builds a forest of random trees up to maxDepth deep over
// dim features whose thresholds, leaf probabilities and internal-node
// probabilities are drawn by edgeValue — trees no inducer would emit,
// as a hostile snapshot could carry.
func edgeForest(rng *rand.Rand, trees, dim, maxDepth int, cfg FlatConfig) *Forest {
	ts := make([]*Tree, trees)
	for i := range ts {
		t := &Tree{}
		var grow func(depth int) int32
		grow = func(depth int) int32 {
			id := int32(len(t.nodes))
			t.nodes = append(t.nodes, node{feature: -1, prob: edgeValue(rng)})
			if depth == maxDepth || rng.Intn(4) == 0 {
				return id
			}
			l := grow(depth + 1)
			r := grow(depth + 1)
			nd := &t.nodes[id]
			nd.feature, nd.threshold, nd.left, nd.right = rng.Intn(dim), edgeValue(rng), l, r
			return id
		}
		grow(0)
		ts[i] = t
	}
	return &Forest{trees: ts, flat: flatten(ts, cfg)}
}

// raggedForests trains a deliberately ragged bank of forests (tree
// counts straddling the treeBlockTrees grouping threshold) under one
// flat layout.
func raggedForests(t *testing.T, cfg FlatConfig) []*Forest {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	sizes := []int{3, 17, 1, 60, 131, 9}
	forests := make([]*Forest, 0, len(sizes))
	for i, trees := range sizes {
		ds := xorDataset(160, rng)
		if i%2 == 1 {
			ds = linearDataset(160, rng)
		}
		f, err := NewForest(ds, ForestConfig{Trees: trees, Seed: int64(100 + i), Flat: cfg})
		if err != nil {
			t.Fatalf("NewForest: %v", err)
		}
		forests = append(forests, f)
	}
	return forests
}

// probeMatrix fills a SampleMatrix with deterministic 2-feature probes
// spanning the datasets' domain.
func probeMatrix(m *SampleMatrix, rows int) {
	m.Reset(rows, 2)
	rng := rand.New(rand.NewSource(42))
	for s := 0; s < rows; s++ {
		m.SetRow(s, []float64{rng.Float64() * 1.1, rng.Float64() * 1.1})
	}
}

// TestForestSetAppendMatchesRebuild holds the incremental enrolment
// path to the rebuild path: appending forests one at a time (with
// classify passes interleaved, as live enrolment does) yields the same
// vote matrix as a Reset + full re-append.
func TestForestSetAppendMatchesRebuild(t *testing.T) {
	cfg := FlatConfig{Quantize: true}
	forests := raggedForests(t, cfg)
	var m SampleMatrix
	probeMatrix(&m, 33)

	incr := NewForestSet(cfg)
	scratch := make([]int32, m.Rows()*len(forests))
	for _, f := range forests {
		if err := incr.Append(f); err != nil {
			t.Fatalf("Append: %v", err)
		}
		incr.Votes(&m, scratch[:m.Rows()*incr.Forests()], 3)
	}

	rebuilt := NewForestSet(cfg)
	rebuilt.Reset() // Reset on empty is a no-op; exercise it anyway.
	for _, f := range forests {
		if err := rebuilt.Append(f); err != nil {
			t.Fatalf("Append after Reset: %v", err)
		}
	}

	a := make([]int32, m.Rows()*incr.Forests())
	b := make([]int32, m.Rows()*rebuilt.Forests())
	incr.Votes(&m, a, 0)
	rebuilt.Votes(&m, b, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("incremental vs rebuilt diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if incr.Bytes() != rebuilt.Bytes() {
		t.Fatalf("Bytes: incremental %d, rebuilt %d", incr.Bytes(), rebuilt.Bytes())
	}
}

// TestForestSetAppendLayoutMismatch rejects fusing a forest flattened
// under the other precision.
func TestForestSetAppendLayoutMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f, err := NewForest(linearDataset(80, rng), ForestConfig{Trees: 5, Seed: 2, Flat: FlatConfig{Quantize: true}})
	if err != nil {
		t.Fatalf("NewForest: %v", err)
	}
	if err := NewForestSet(FlatConfig{}).Append(f); err == nil {
		t.Fatal("appending a quantized forest to a float64 set succeeded")
	}
}

// TestForestSetVotesZeroAlloc pins the fused pass's allocation
// contract: after one warm-up pass (which sizes the pooled key buffer
// and spins up the worker pool), a fused classify allocates nothing —
// sequential or fanned out.
func TestForestSetVotesZeroAlloc(t *testing.T) {
	for _, cfg := range []FlatConfig{{}, {Quantize: true}} {
		forests := raggedForests(t, cfg)
		fs := NewForestSet(cfg)
		for _, f := range forests {
			if err := fs.Append(f); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		var m SampleMatrix
		probeMatrix(&m, 70)
		votes := make([]int32, m.Rows()*fs.Forests())
		for _, workers := range []int{1, runtime.GOMAXPROCS(0) + 1} {
			fs.Votes(&m, votes, workers) // warm pool, job cache, key buffer
			if n := testing.AllocsPerRun(20, func() { fs.Votes(&m, votes, workers) }); n != 0 {
				t.Errorf("quantize=%v workers=%d: %v allocs per Votes, want 0", cfg.Quantize, workers, n)
			}
		}
	}
}

// TestForestSetEmpty covers the degenerate shapes: an empty arena and a
// zero-row matrix both return without touching votes beyond the zeroed
// prefix.
func TestForestSetEmpty(t *testing.T) {
	fs := NewForestSet(FlatConfig{})
	var m SampleMatrix
	probeMatrix(&m, 4)
	fs.Votes(&m, nil, 8) // no forests: must not panic
	if fs.Forests() != 0 {
		t.Fatalf("Forests() = %d, want 0", fs.Forests())
	}

	rng := rand.New(rand.NewSource(6))
	f, err := NewForest(linearDataset(80, rng), ForestConfig{Trees: 5, Seed: 3})
	if err != nil {
		t.Fatalf("NewForest: %v", err)
	}
	if err := fs.Append(f); err != nil {
		t.Fatalf("Append: %v", err)
	}
	m.Reset(0, 2)
	fs.Votes(&m, nil, 8) // no rows: must not panic
}

// TestFusedVotesEqualOracle is the fused engine's bit-equality property
// test: it holds the branch-free kernel to the branchy walk, cell for
// cell, over ragged trained forests (tree counts below, at and above a
// lane group, straddling a tree block) plus random edge-value forests,
// under every layout, on samples holding NaN, ±Inf and ±0, for every
// batch size from 1 to 130 and every worker count from 1 to
// 2×GOMAXPROCS+1.
func TestFusedVotesEqualOracle(t *testing.T) {
	const maxRows = 130
	rng := rand.New(rand.NewSource(29))
	pool := make([][]float64, maxRows)
	for s := range pool {
		pool[s] = []float64{edgeValue(rng), edgeValue(rng)}
	}
	for _, cfg := range []FlatConfig{{}, {Quantize: true}, {MaxLeaves: 8}, {Quantize: true, MaxLeaves: 8}} {
		forests := raggedForests(t, cfg)
		for _, trees := range []int{1, 7, 8, 9, 20} {
			forests = append(forests, edgeForest(rng, trees, 2, 9, cfg))
		}
		fs := NewForestSet(cfg)
		for _, f := range forests {
			if err := fs.Append(f); err != nil {
				t.Fatal(err)
			}
		}
		if fs.Forests() != len(forests) {
			t.Fatalf("Forests() = %d, want %d", fs.Forests(), len(forests))
		}
		for i, f := range forests {
			if fs.TreesOf(i) != f.Trees() {
				t.Fatalf("TreesOf(%d) = %d, want %d", i, fs.TreesOf(i), f.Trees())
			}
		}
		var m SampleMatrix
		m.Reset(maxRows, 2)
		for s, x := range pool {
			m.SetRow(s, x)
		}
		want := branchyVotes(forests, &m)
		votes := make([]int32, len(want))
		for rows := 1; rows <= maxRows; rows++ {
			m.Reset(rows, 2)
			for workers := 1; workers <= 2*runtime.GOMAXPROCS(0)+1; workers++ {
				for i := range votes {
					votes[i] = -1
				}
				fs.Votes(&m, votes, workers)
				for i, v := range votes[:rows*len(forests)] {
					if v != want[i] {
						s, f := i/len(forests), i%len(forests)
						t.Fatalf("quantize=%v maxLeaves=%d rows=%d workers=%d: sample %d %v forest %d: %d votes, oracle %d",
							cfg.Quantize, cfg.MaxLeaves, rows, workers, s, m.Row(s), f, v, want[i])
					}
				}
			}
		}
	}
}

// fuzzDim is the sample width FuzzFusedVotes decodes forests against.
const fuzzDim = 3

// FuzzFusedVotes decodes a fuzzed forest snapshot, fuses it (twice, so
// the votes matrix has two columns) and checks the branch-free kernel
// against the branchy walk on fuzzed sample values, both layouts.
func FuzzFusedVotes(f *testing.F) {
	rng := rand.New(rand.NewSource(30))
	trained, err := NewForest(intDataset(100, rng), ForestConfig{Trees: 3, Seed: 13})
	if err != nil {
		f.Fatal(err)
	}
	var raw []byte
	for range 10 * fuzzDim {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(edgeValue(rng)))
	}
	f.Add(AppendForest(nil, trained), raw, false)
	f.Add(AppendForest(nil, trained), raw[:40], true)
	f.Add(AppendForest(nil, edgeForest(rng, 9, fuzzDim, 3, FlatConfig{})), raw, false)
	f.Add(AppendForest(nil, edgeForest(rng, 3, fuzzDim, 5, FlatConfig{})), raw, true)
	f.Fuzz(func(t *testing.T, blob, raw []byte, quantize bool) {
		cfg := FlatConfig{Quantize: quantize}
		forest, _, err := DecodeForest(blob, fuzzDim, cfg)
		if err != nil {
			return
		}
		var m SampleMatrix
		rows := min(len(raw)/(8*fuzzDim), 2*sampleBlock+1)
		m.Reset(rows, fuzzDim)
		for i := range rows * fuzzDim {
			m.data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		forests := []*Forest{forest, forest}
		fs := NewForestSet(cfg)
		for _, fo := range forests {
			if err := fs.Append(fo); err != nil {
				t.Fatal(err)
			}
		}
		want := branchyVotes(forests, &m)
		votes := make([]int32, len(want))
		for _, workers := range []int{1, 3} {
			fs.Votes(&m, votes, workers)
			for i := range want {
				if votes[i] != want[i] {
					t.Fatalf("workers=%d: cell %d (sample %v): %d votes, oracle %d", workers, i, m.Row(i/2), votes[i], want[i])
				}
			}
		}
	})
}
