package ml

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// xorDataset builds a noiseless 2-feature dataset that a depth-2 tree can
// separate only partially but a forest nails: y = x0 XOR x1.
func xorDataset(n int, rng *rand.Rand) *Dataset {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		a, b := float64(rng.Intn(2)), float64(rng.Intn(2))
		// Jitter inputs slightly so thresholds are learnable.
		x[i] = []float64{a + rng.Float64()*0.1, b + rng.Float64()*0.1}
		if (a == 1) != (b == 1) {
			y[i] = 1
		}
	}
	ds, err := NewDataset(x, y)
	if err != nil {
		panic(err)
	}
	return ds
}

// linearDataset is separable on feature 0 at threshold 0.5.
func linearDataset(n int, rng *rand.Rand) *Dataset {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		v := rng.Float64()
		x[i] = []float64{v, rng.Float64()}
		if v > 0.5 {
			y[i] = 1
		}
	}
	ds, err := NewDataset(x, y)
	if err != nil {
		panic(err)
	}
	return ds
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil, nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("mismatched labels accepted")
	}
	if _, err := NewDataset([][]float64{{1}, {1, 2}}, []int{0, 1}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{2}); err == nil {
		t.Error("non-binary label accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewDataset([][]float64{{0, 1}, {2, v}}, []int{0, 1}); err == nil {
			t.Errorf("feature %v accepted", v)
		}
		if _, err := NewForest(&Dataset{X: [][]float64{{0}, {v}}, Y: []int{0, 1}}, ForestConfig{Trees: 1}); err == nil {
			t.Errorf("forest trained on feature %v", v)
		}
	}
}

func TestTreeFitsLinearData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := linearDataset(200, rng)
	tree := rankedTree(t, ds, TreeConfig{MTry: 2}, rng)
	errs := 0
	for i := 0; i < ds.Len(); i++ {
		if tree.Predict(ds.X[i]) != ds.Y[i] {
			errs++
		}
	}
	if errs != 0 {
		t.Errorf("tree mispredicts %d/%d training rows on separable data", errs, ds.Len())
	}
}

func TestTreePureNodeIsLeaf(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	ds, err := NewDataset(x, y)
	if err != nil {
		t.Fatal(err)
	}
	tree := rankedTree(t, ds, TreeConfig{}, rand.New(rand.NewSource(1)))
	if tree.NodeCount() != 1 {
		t.Errorf("pure dataset grew %d nodes, want 1", tree.NodeCount())
	}
	if tree.Predict([]float64{5}) != 1 {
		t.Error("pure positive tree predicts 0")
	}
}

func TestTreeMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := xorDataset(400, rng)
	tree := rankedTree(t, ds, TreeConfig{MaxDepth: 3, MTry: 2}, rng)
	if d := tree.Depth(); d > 3 {
		t.Errorf("Depth = %d, want <= 3", d)
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := xorDataset(200, rng)
	tree := rankedTree(t, ds, TreeConfig{MinSamplesLeaf: 50, MTry: 2}, rng)
	// With a 50-row floor on 200 rows the tree can have at most 4 leaves
	// (7 nodes).
	if tree.NodeCount() > 7 {
		t.Errorf("NodeCount = %d, want <= 7 with MinSamplesLeaf=50", tree.NodeCount())
	}
}

func TestForestFitsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train := xorDataset(600, rng)
	test := xorDataset(200, rng)
	forest, err := NewForest(train, ForestConfig{Trees: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := 0; i < test.Len(); i++ {
		if forest.Predict(test.X[i]) != test.Y[i] {
			errs++
		}
	}
	if acc := 1 - float64(errs)/float64(test.Len()); acc < 0.95 {
		t.Errorf("forest XOR accuracy = %.3f, want >= 0.95", acc)
	}
}

// TestForestDeterminism: a forest's encoded bytes depend only on the
// data and the seed — not on the run, the worker count or GOMAXPROCS —
// and another seed trains another forest.
func TestForestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := xorDataset(300, rng)
	cfg := ForestConfig{Trees: 20, Seed: 7}
	encode := func(f *Forest, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return AppendForest(nil, f)
	}
	want := encode(NewForest(ds, cfg))
	if again := encode(NewForest(ds, cfg)); !bytes.Equal(again, want) {
		t.Error("same seed trained a different forest")
	}
	for _, workers := range []int{1, 2, 2*runtime.GOMAXPROCS(0) + 1} {
		if got := encode(newForest(ds, cfg, workers)); !bytes.Equal(got, want) {
			t.Errorf("%d workers trained a different forest", workers)
		}
	}
	cfg.Seed = 8
	if other := encode(NewForest(ds, cfg)); bytes.Equal(other, want) {
		t.Error("seeds 7 and 8 trained the same forest")
	}
}

func TestForestEmptyDataset(t *testing.T) {
	if _, err := NewForest(nil, ForestConfig{}); err == nil {
		t.Error("NewForest(nil) succeeded")
	}
}

func TestForestProbRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := linearDataset(100, rng)
	forest, err := NewForest(ds, ForestConfig{Trees: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		p := forest.PredictProb([]float64{a, b})
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStratifiedKFoldPreservesClassBalance(t *testing.T) {
	// 27 classes with 20 samples each, as in the paper's dataset.
	labels := make([]int, 0, 540)
	for c := 0; c < 27; c++ {
		for i := 0; i < 20; i++ {
			labels = append(labels, c)
		}
	}
	rng := rand.New(rand.NewSource(9))
	folds, err := StratifiedKFold(labels, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 10 {
		t.Fatalf("got %d folds, want 10", len(folds))
	}
	seen := make(map[int]bool)
	for fi, fold := range folds {
		if len(fold) != 54 {
			t.Errorf("fold %d has %d samples, want 54", fi, len(fold))
		}
		perClass := make(map[int]int)
		for _, idx := range fold {
			if seen[idx] {
				t.Fatalf("sample %d appears in two folds", idx)
			}
			seen[idx] = true
			perClass[labels[idx]]++
		}
		for c, n := range perClass {
			if n != 2 {
				t.Errorf("fold %d class %d has %d samples, want 2", fi, c, n)
			}
		}
	}
	if len(seen) != 540 {
		t.Errorf("folds cover %d samples, want 540", len(seen))
	}
}

func TestStratifiedKFoldErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := StratifiedKFold([]int{0, 1}, 1, rng); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := StratifiedKFold([]int{0}, 2, rng); err == nil {
		t.Error("fewer samples than folds accepted")
	}
}

func TestTrainTestSplit(t *testing.T) {
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1}
	rng := rand.New(rand.NewSource(2))
	folds, err := StratifiedKFold(labels, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	train, test := TrainTestSplit(folds, 0, len(labels))
	if len(train)+len(test) != len(labels) {
		t.Errorf("train+test = %d+%d, want %d total", len(train), len(test), len(labels))
	}
	inTest := make(map[int]bool)
	for _, i := range test {
		inTest[i] = true
	}
	for _, i := range train {
		if inTest[i] {
			t.Errorf("index %d in both train and test", i)
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	got := SampleWithoutReplacement(10, 5, rng)
	if len(got) != 5 {
		t.Fatalf("sample size = %d, want 5", len(got))
	}
	seen := make(map[int]bool)
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Errorf("sample value %d out of range", v)
		}
		if seen[v] {
			t.Errorf("duplicate sample value %d", v)
		}
		seen[v] = true
	}
	// k > n returns all indices.
	if got := SampleWithoutReplacement(3, 10, rng); len(got) != 3 {
		t.Errorf("oversized k returned %d values, want 3", len(got))
	}
}
