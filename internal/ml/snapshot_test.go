package ml

import (
	"bytes"
	"math/rand"
	"testing"
)

// intDataset builds a two-class dataset over small integer features —
// the shape fingerprint feature vectors have — so CART thresholds are
// midpoints of small integers and the float32 layout is exact.
func intDataset(n int, rng *rand.Rand) *Dataset {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a := float64(rng.Intn(8))
		b := float64(rng.Intn(8))
		c := float64(rng.Intn(1500))
		X[i] = []float64{a, b, c}
		if a >= 4 && c > 700 {
			y[i] = 1
		}
	}
	ds, err := NewDataset(X, y)
	if err != nil {
		panic(err)
	}
	return ds
}

func trainedForest(t testing.TB, ds *Dataset, cfg ForestConfig) *Forest {
	t.Helper()
	f, err := NewForest(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestForestSnapshotRoundTrip holds the codec to exactness: a decoded
// forest must predict bit-identically to the one that was encoded, and
// re-encoding it must reproduce the same bytes.
func TestForestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ds := intDataset(400, rng)
	forest := trainedForest(t, ds, ForestConfig{Trees: 30, Seed: 5})

	snap := AppendForest(nil, forest)
	got, rest, err := DecodeForest(snap, 3, FlatConfig{})
	if err != nil {
		t.Fatalf("DecodeForest: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("DecodeForest left %d bytes, want 0", len(rest))
	}
	for trial := 0; trial < 200; trial++ {
		x := []float64{float64(rng.Intn(8)), float64(rng.Intn(8)), float64(rng.Intn(1500))}
		if a, b := forest.PredictProb(x), got.PredictProb(x); a != b {
			t.Fatalf("restored forest PredictProb(%v) = %v, original %v", x, b, a)
		}
	}
	if again := AppendForest(nil, got); !bytes.Equal(snap, again) {
		t.Fatalf("re-encoding the restored forest changed the bytes (%d vs %d)", len(again), len(snap))
	}
}

// TestForestSnapshotSection checks the length-prefixed framing: a
// section followed by trailing payload hands the payload back.
func TestForestSnapshotSection(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	forest := trainedForest(t, intDataset(200, rng), ForestConfig{Trees: 10, Seed: 6})
	tail := []byte("next-section")
	snap := append(AppendForest(nil, forest), tail...)
	_, rest, err := DecodeForest(snap, 3, FlatConfig{})
	if err != nil {
		t.Fatalf("DecodeForest: %v", err)
	}
	if !bytes.Equal(rest, tail) {
		t.Fatalf("rest = %q, want %q", rest, tail)
	}
}

// TestDecodeForestRejectsCorrupt truncates and flips the encoding at
// every offset: each mutation must produce an error or a decodable
// forest, never a panic or a hang (the traversal-termination invariant).
func TestDecodeForestRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	forest := trainedForest(t, intDataset(150, rng), ForestConfig{Trees: 4, Seed: 7})
	snap := AppendForest(nil, forest)

	for cut := 0; cut < len(snap); cut++ {
		if _, _, err := DecodeForest(snap[:cut], 3, FlatConfig{}); err == nil {
			t.Fatalf("truncation at %d of %d decoded cleanly", cut, len(snap))
		}
	}
	for i := range snap {
		mutated := append([]byte(nil), snap...)
		mutated[i] ^= 0x41
		f, _, err := DecodeForest(mutated, 3, FlatConfig{})
		if err != nil {
			continue
		}
		// A surviving decode must still be traversable: every prediction
		// terminates because children sit strictly after their parent.
		f.PredictProb([]float64{1, 2, 3})
	}
}

// TestDecodeForestRejectsNonTrees rejects node graphs that are not
// trees — a shared child, one child twice, an unreachable node — which
// ForestSet could not number leaves for, and still accepts the tree the
// same nodes form when wired properly.
func TestDecodeForestRejectsNonTrees(t *testing.T) {
	split := func(l, r int32) node { return node{feature: 0, threshold: 0.5, left: l, right: r} }
	leaf := node{feature: -1, prob: 1}
	for _, tc := range []struct {
		name  string
		nodes []node
		ok    bool
	}{
		{"tree", []node{split(1, 2), split(3, 4), leaf, leaf, leaf}, true},
		{"shared child", []node{split(1, 2), split(2, 3), leaf, leaf}, false},
		{"child twice", []node{split(1, 1), leaf}, false},
		{"unreachable", []node{split(1, 2), leaf, leaf, leaf}, false},
	} {
		trees := []*Tree{{nodes: tc.nodes}}
		blob := AppendForest(nil, &Forest{trees: trees})
		if _, _, err := DecodeForest(blob, 1, FlatConfig{}); (err == nil) != tc.ok {
			t.Errorf("%s: decode error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestQuantizedExactOnIntegerFeatures: on integer-valued features (the
// fingerprint case) CART thresholds are midpoints of small integers,
// exactly representable in float32 — the quantized layout must vote
// identically to the exact one.
func TestQuantizedExactOnIntegerFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ds := intDataset(500, rng)
	exact := trainedForest(t, ds, ForestConfig{Trees: 40, Seed: 9})
	quant := trainedForest(t, ds, ForestConfig{Trees: 40, Seed: 9, Flat: FlatConfig{Quantize: true}})

	for trial := 0; trial < 500; trial++ {
		x := []float64{float64(rng.Intn(8)), float64(rng.Intn(8)), float64(rng.Intn(1500))}
		if a, b := exact.PredictProb(x), quant.PredictProb(x); a != b {
			t.Fatalf("quantized PredictProb(%v) = %v, exact %v", x, b, a)
		}
	}
	if qb, eb := quant.FlatBytes(), exact.FlatBytes(); qb >= eb {
		t.Fatalf("quantized layout is %d bytes, exact %d: quantization must shrink the threshold array", qb, eb)
	}
}

// TestQuantizedDriftBounded: on continuous features float32 rounding
// may flip the occasional comparison; the probability drift must stay
// small in aggregate.
func TestQuantizedDriftBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ds := xorDataset(400, rng)
	exact := trainedForest(t, ds, ForestConfig{Trees: 40, Seed: 10})
	quant := trainedForest(t, ds, ForestConfig{Trees: 40, Seed: 10, Flat: FlatConfig{Quantize: true}})

	var total float64
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		x := []float64{rng.Float64() * 1.2, rng.Float64() * 1.2}
		d := exact.PredictProb(x) - quant.PredictProb(x)
		if d < 0 {
			d = -d
		}
		total += d
	}
	if mean := total / trials; mean > 0.01 {
		t.Fatalf("mean quantized probability drift %.4f, want <= 0.01", mean)
	}
}

// TestLeafCapShrinksLayout: a leaf cap must shrink the flat arrays,
// keep every tree within the cap, and leave the trained trees usable
// for an uncapped re-flattening (pruning never mutates them).
func TestLeafCapShrinksLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ds := intDataset(600, rng)
	full := trainedForest(t, ds, ForestConfig{Trees: 20, Seed: 11})
	capped := trainedForest(t, ds, ForestConfig{Trees: 20, Seed: 11, Flat: FlatConfig{MaxLeaves: 4}})

	if cb, fb := capped.FlatBytes(), full.FlatBytes(); cb >= fb {
		t.Fatalf("capped layout is %d bytes, full %d: the cap must shrink the arrays", cb, fb)
	}
	// Count leaves per tree in the capped flat layout.
	flat := capped.flat
	for ti, root := range flat.roots {
		end := int32(len(flat.feature))
		if ti+1 < len(flat.roots) {
			end = flat.roots[ti+1]
		}
		leaves := 0
		for i := root; i < end; i++ {
			if flat.feature[i] < 0 {
				leaves++
			}
		}
		if leaves > 4 {
			t.Fatalf("tree %d has %d leaves in the capped layout, want <= 4", ti, leaves)
		}
	}
	// The trained trees survive pruning untouched: flattening them again
	// without a cap reproduces the full layout size.
	if again := flatten(capped.trees, FlatConfig{}); again.bytes() != full.flat.bytes() {
		t.Fatalf("re-flattening the capped forest's trees gives %d bytes, want the full %d (pruning must not mutate the trained trees)", again.bytes(), full.flat.bytes())
	}
	// Capped predictions still separate the classes on training data.
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		if capped.Predict(ds.X[i]) == ds.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(ds.Len()); acc < 0.85 {
		t.Fatalf("leaf-capped training accuracy %.3f, want >= 0.85", acc)
	}
}

// TestSnapshotRestoresQuantizedLayout: DecodeForest rebuilds the flat
// layout under the caller's FlatConfig, so a snapshot taken from an
// exact forest can serve quantized (and vice versa, losslessly, since
// trees serialize exact).
func TestSnapshotRestoresQuantizedLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	ds := intDataset(300, rng)
	exact := trainedForest(t, ds, ForestConfig{Trees: 20, Seed: 12})
	snap := AppendForest(nil, exact)
	quant, _, err := DecodeForest(snap, 3, FlatConfig{Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	if quant.flat.threshold32 == nil {
		t.Fatal("restored forest did not adopt the quantized layout")
	}
	for trial := 0; trial < 200; trial++ {
		x := []float64{float64(rng.Intn(8)), float64(rng.Intn(8)), float64(rng.Intn(1500))}
		if a, b := exact.PredictProb(x), quant.PredictProb(x); a != b {
			t.Fatalf("quantized restore PredictProb(%v) = %v, exact %v", x, b, a)
		}
	}
}

// FuzzDecodeForest holds the forest codec to the fuzz contract: corrupt
// or truncated input errors, never panics, and a surviving decode is
// traversable.
func FuzzDecodeForest(f *testing.F) {
	rng := rand.New(rand.NewSource(28))
	forest, err := NewForest(intDataset(100, rng), ForestConfig{Trees: 3, Seed: 13})
	if err != nil {
		f.Fatal(err)
	}
	snap := AppendForest(nil, forest)
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, _, err := DecodeForest(data, 3, FlatConfig{})
		if err != nil {
			return
		}
		decoded.PredictProb([]float64{1, 2, 3})
	})
}

// BenchmarkQuantizedPredict compares the exact and quantized serving
// layouts on the flat traversal hot path.
func BenchmarkQuantizedPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	ds := intDataset(600, rng)
	for _, mode := range []struct {
		name string
		flat FlatConfig
	}{
		{"exact", FlatConfig{}},
		{"quantized", FlatConfig{Quantize: true}},
		{"quantized-cap32", FlatConfig{Quantize: true, MaxLeaves: 32}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			forest := trainedForest(b, ds, ForestConfig{Trees: 100, Seed: 14, Flat: mode.flat})
			x := []float64{5, 2, 900}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				forest.PredictProb(x)
			}
			b.ReportMetric(float64(forest.FlatBytes()), "flat-bytes")
		})
	}
}
