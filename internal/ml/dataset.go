// Package ml implements the machine-learning substrate of the IoT
// Sentinel reproduction: CART decision trees, Breiman Random Forests for
// binary classification, and stratified cross-validation utilities.
//
// Everything is built from scratch on the standard library. All
// randomness (bootstrap sampling, per-node feature subsampling, fold
// shuffling) flows from explicitly seeded generators, so training is
// bit-for-bit reproducible. A forest ranks each feature column once, so
// split search counts rows per rank instead of sorting at every node,
// and trains its trees concurrently on up to GOMAXPROCS goroutines; the
// trained forest does not depend on the worker count or GOMAXPROCS.
package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Dataset is a design matrix with binary labels. Rows of X are feature
// vectors; Y[i] is the class (0 or 1) of row i.
type Dataset struct {
	X [][]float64
	Y []int
}

// NewDataset validates and wraps the given matrix and labels: rows of
// one length, binary labels and finite features. The slices are
// retained, not copied.
func NewDataset(x [][]float64, y []int) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("ml: %d rows but %d labels", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("ml: empty dataset")
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), d)
		}
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, errNonFinite(i, f, v)
			}
		}
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			return nil, fmt.Errorf("ml: label %d of row %d is not binary", label, i)
		}
	}
	return &Dataset{X: x, Y: y}, nil
}

// errNonFinite reports a NaN or infinite feature value, which has no
// order a split search could sweep.
func errNonFinite(row, feature int, v float64) error {
	return fmt.Errorf("ml: row %d feature %d is %v, want a finite value", row, feature, v)
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// Features returns the number of columns.
func (d *Dataset) Features() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// SampleWithoutReplacement draws k distinct values from [0,n) using a
// partial Fisher-Yates shuffle. If k >= n it returns all n indices in
// shuffled order.
func SampleWithoutReplacement(n, k int, rng *rand.Rand) []int {
	perm := rng.Perm(n)
	if k > n {
		k = n
	}
	return perm[:k]
}
