package ml

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// branchyVotes is the fused pass's oracle: every forest walks every
// sample on its own flat layout with a compare-and-branch per node
// (flatForest.votesRange, in the layout's precision). votes[s*F+f] is
// forest f's positive vote count on row s.
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
	return growForest(rng, trees, dim, maxDepth, func() bool { return rng.Intn(4) == 0 }, cfg)
}

// fullForest builds a forest of complete edge-value trees depth deep —
// 2^depth leaves each, so from depth 7 on every tree spans several leaf
// words.
func fullForest(rng *rand.Rand, trees, dim, depth int, cfg FlatConfig) *Forest {
	return growForest(rng, trees, dim, depth, func() bool { return false }, cfg)
}

// growForest grows random edge-value trees to maxDepth, stopping a
// branch early wherever stop says so.
func growForest(rng *rand.Rand, trees, dim, maxDepth int, stop func() bool, cfg FlatConfig) *Forest {
	ts := make([]*Tree, trees)
	for i := range ts {
		t := &Tree{}
		var grow func(depth int) int32
		grow = func(depth int) int32 {
			id := int32(len(t.nodes))
			t.nodes = append(t.nodes, node{feature: -1, prob: edgeValue(rng)})
			if depth == maxDepth || stop() {
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
// counts from 1 to well over a hundred) under one flat layout.
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
// path to the bulk one: appending forests one at a time (with classify
// passes interleaved, as live enrolment does) yields the same vote
// matrix, footprint and pass view as one Build, and as a Reset followed
// by re-appends.
func TestForestSetAppendMatchesRebuild(t *testing.T) {
	cfg := FlatConfig{Quantize: true}
	forests := raggedForests(t, cfg)
	forests = append(forests, forests[3]) // every key of a repeat ties an existing one
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

	built := NewForestSet(cfg)
	if err := built.Build(forests); err != nil {
		t.Fatalf("Build: %v", err)
	}
	rebuilt := NewForestSet(cfg)
	if err := rebuilt.Build(forests[:2]); err != nil {
		t.Fatalf("Build: %v", err)
	}
	rebuilt.Reset()
	for _, f := range forests {
		if err := rebuilt.Append(f); err != nil {
			t.Fatalf("Append after Reset: %v", err)
		}
	}
	requireSameSets(t, &m, incr, built)
	requireSameSets(t, &m, incr, rebuilt)
}

// TestForestSetAppendNewFeatures appends forests that split on features
// the index has no run for yet — below, between and above the existing
// runs — and holds the result to a Build of the same forests.
func TestForestSetAppendNewFeatures(t *testing.T) {
	stumps := func(cfg FlatConfig, features ...int) *Forest {
		var ts []*Tree
		for i, f := range features {
			ts = append(ts, &Tree{nodes: []node{
				{feature: f, threshold: 0.25 * float64(i+1), left: 1, right: 2},
				{feature: -1, prob: 1},
				{feature: -1},
			}})
		}
		return &Forest{trees: ts, flat: flatten(ts, cfg)}
	}
	for _, cfg := range []FlatConfig{{}, {Quantize: true}} {
		forests := []*Forest{stumps(cfg, 2, 4), stumps(cfg, 3, 0), stumps(cfg, 5, 1, 3)}
		var m SampleMatrix
		m.Reset(40, 6)
		rng := rand.New(rand.NewSource(32))
		for s := 0; s < m.Rows(); s++ {
			for f := range m.Row(s) {
				m.Row(s)[f] = rng.Float64()
			}
		}
		incr := NewForestSet(cfg)
		for _, f := range forests {
			if err := incr.Append(f); err != nil {
				t.Fatal(err)
			}
		}
		built := NewForestSet(cfg)
		if err := built.Build(forests); err != nil {
			t.Fatal(err)
		}
		requireSameSets(t, &m, incr, built)
		votes := make([]int32, m.Rows()*len(forests))
		incr.Votes(&m, votes, 1)
		if want := branchyVotes(forests, &m); !slices.Equal(votes, want) {
			t.Fatalf("quantize=%v: votes %v, oracle %v", cfg.Quantize, votes, want)
		}
	}
}

// requireSameSets fails unless a and b hold the same forests: equal
// vote matrices on m and equal footprints.
func requireSameSets(t *testing.T, m *SampleMatrix, a, b *ForestSet) {
	t.Helper()
	if a.Forests() != b.Forests() {
		t.Fatalf("Forests: %d vs %d", a.Forests(), b.Forests())
	}
	va := make([]int32, m.Rows()*a.Forests())
	vb := make([]int32, m.Rows()*b.Forests())
	a.Votes(m, va, 0)
	b.Votes(m, vb, 1)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("votes diverge at cell %d: %d vs %d", i, va[i], vb[i])
		}
	}
	if a.Bytes() != b.Bytes() {
		t.Fatalf("Bytes: %d vs %d", a.Bytes(), b.Bytes())
	}
	requireSameView(t, &a.ix64, &b.ix64)
	requireSameView(t, &a.ix32, &b.ix32)
}

// requireSameView fails unless two indexes give the pass the same view:
// the view does not depend on how the entries were merged in.
func requireSameView[K uint32 | uint64](t *testing.T, a, b *index[K]) {
	t.Helper()
	if !slices.Equal(a.feats, b.feats) || !slices.Equal(a.ustart, b.ustart) || !slices.Equal(a.ukeys, b.ukeys) || !slices.Equal(a.begin, b.begin) {
		t.Fatalf("pass views differ:\nfeats %v\n   vs %v\nustart %v\n    vs %v\nukeys %v\n   vs %v\nbegin %v\n   vs %v",
			a.feats, b.feats, a.ustart, b.ustart, a.ukeys, b.ukeys, a.begin, b.begin)
	}
}

// TestForestSetRemoveMatchesBuild holds Remove to a Build of the
// survivors: dropping each forest in turn — first, middle, last, a
// multi-word one — and then appending another leaves the same index as
// building the resulting list in one pass, in both layouts.
func TestForestSetRemoveMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, cfg := range []FlatConfig{{}, {Quantize: true}} {
		forests := raggedForests(t, cfg)
		forests = append(forests[:3], append([]*Forest{fullForest(rng, 2, 2, 8, cfg)}, forests[3:]...)...)
		var m SampleMatrix
		probeMatrix(&m, 40)
		for drop := range forests {
			fs := NewForestSet(cfg)
			if err := fs.Build(forests); err != nil {
				t.Fatal(err)
			}
			fs.Remove(drop)
			survivors := append(append([]*Forest(nil), forests[:drop]...), forests[drop+1:]...)
			want := NewForestSet(cfg)
			if err := want.Build(survivors); err != nil {
				t.Fatal(err)
			}
			requireSameSets(t, &m, fs, want)
			if err := fs.Append(forests[drop]); err != nil {
				t.Fatal(err)
			}
			if err := want.Build(append(survivors, forests[drop])); err != nil {
				t.Fatal(err)
			}
			requireSameSets(t, &m, fs, want)
		}
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
	if err := NewForestSet(FlatConfig{}).Build([]*Forest{f}); err == nil {
		t.Fatal("building a float64 set from a quantized forest succeeded")
	}
}

// TestForestSetVotesZeroAlloc pins the fused pass's allocation
// contract: after one warm-up pass (which sizes the pooled key and leaf
// word buffers and spins up the worker pool), a fused classify
// allocates nothing — sequential or fanned out.
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

// TestForestSetEmpty covers the degenerate shapes: an empty index and a
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
// test: it holds the QuickScorer pass to the branchy walk, cell for
// cell, over ragged trained forests, random edge-value forests and
// complete trees of depth 7 to 9 (two to eight leaf words each), under
// every layout, on samples holding NaN, ±Inf and ±0 — values the
// edge-value thresholds sit exactly on — for every batch size from 1 to
// 130 and every worker count from 1 to 2×GOMAXPROCS+1.
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
		for depth := 7; depth <= 9; depth++ {
			forests = append(forests, fullForest(rng, 3, 2, depth, cfg))
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
// the votes matrix has two columns) and checks the QuickScorer pass
// against the branchy walk on fuzzed sample values, both layouts. One
// seed is a complete depth-7 tree, whose 128 leaves take two words.
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
	f.Add(AppendForest(nil, fullForest(rng, 1, fuzzDim, 7, FlatConfig{})), raw, false)
	f.Fuzz(func(t *testing.T, blob, raw []byte, quantize bool) {
		cfg := FlatConfig{Quantize: quantize}
		forest, _, err := DecodeForest(blob, fuzzDim, cfg)
		if err != nil {
			return
		}
		var m SampleMatrix
		rows := min(len(raw)/(8*fuzzDim), 4*tileRows+1)
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
