package ml

import (
	"math/rand"
	"testing"
)

// treeWalkProb computes the forest probability by walking the per-tree
// representation, the layout PredictProb used before flattening.
func treeWalkProb(f *Forest, x []float64) float64 {
	votes := 0
	for _, t := range f.trees {
		votes += t.Predict(x)
	}
	return float64(votes) / float64(len(f.trees))
}

func TestFlatForestMatchesTreeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := xorDataset(400, rng)
	forest, err := NewForest(ds, ForestConfig{Trees: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		x := []float64{rng.Float64() * 1.2, rng.Float64() * 1.2}
		if got, want := forest.PredictProb(x), treeWalkProb(forest, x); got != want {
			t.Fatalf("flat PredictProb(%v) = %v, tree walk = %v", x, got, want)
		}
	}
}

func TestPredictProbBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ds := xorDataset(400, rng)
	forest, err := NewForest(ds, ForestConfig{Trees: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 3, 7, 8, 100} {
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = []float64{rng.Float64() * 1.2, rng.Float64() * 1.2}
		}
		for _, workers := range []int{0, 1, 2, 5} {
			got := forest.PredictProbBatch(xs, workers)
			if len(got) != n {
				t.Fatalf("batch of %d returned %d results", n, len(got))
			}
			for i, x := range xs {
				if want := forest.PredictProb(x); got[i] != want {
					t.Fatalf("n=%d workers=%d: batch[%d] = %v, sequential = %v", n, workers, i, got[i], want)
				}
			}
		}
	}
}

func TestFlattenLeafOnlyTrees(t *testing.T) {
	// A pure dataset induces single-leaf trees: flattening must keep the
	// roots distinct and the leaf probabilities intact.
	x := [][]float64{{1}, {1}, {1}}
	ds, err := NewDataset(x, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := NewForest(ds, ForestConfig{Trees: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := forest.PredictProb([]float64{1}); got != 1 {
		t.Errorf("pure-positive forest PredictProb = %v, want 1", got)
	}
}

// BenchmarkPredictProbBatch isolates stage-one inference: one flattened
// forest voting on a batch of fingerprint-sized samples.
func BenchmarkPredictProbBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	const dims = 276 // 12 packets x 23 features
	x := make([][]float64, 400)
	y := make([]int, len(x))
	for i := range x {
		row := make([]float64, dims)
		for j := range row {
			row[j] = float64(rng.Intn(4))
		}
		x[i] = row
		y[i] = rng.Intn(2)
	}
	ds, err := NewDataset(x, y)
	if err != nil {
		b.Fatal(err)
	}
	forest, err := NewForest(ds, ForestConfig{Trees: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	batch := x[:108]
	for _, workers := range []int{1, 0} {
		name := "workers=1"
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				forest.PredictProbBatch(batch, workers)
			}
		})
	}
}
