package ml

import "testing"

// TestSampleMatrixShape covers the dense-matrix surface directly: shape
// accessors, the SetRow zero-pad branch, and row reuse across Reset.
func TestSampleMatrixShape(t *testing.T) {
	var m SampleMatrix
	m.Reset(3, 4)
	if m.Rows() != 3 || m.Dim() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Dim())
	}
	m.SetRow(0, []float64{1, 2}) // shorter than dim: must zero-pad
	m.SetRow(1, []float64{5, 6, 7, 8})
	m.SetRow(2, []float64{9, 10, 11, 12})
	if got := m.Row(0); got[0] != 1 || got[1] != 2 || got[2] != 0 || got[3] != 0 {
		t.Fatalf("padded row = %v, want [1 2 0 0]", got)
	}

	// Reset reuses the backing array: a shrink exposes the new rows only.
	m.Reset(1, 4)
	m.SetRow(0, []float64{42, 43, 44, 45})
	if got := m.Row(0); len(got) != 4 || got[0] != 42 || got[3] != 45 {
		t.Fatalf("post-Reset row = %v, want [42 43 44 45]", got)
	}
}

// TestForestSetBytesQuantized pins the footprint accounting both ways:
// the quantized index stores float32 keys, so at equal tree
// structure it must report strictly fewer bytes than the float64 form.
func TestForestSetBytesQuantized(t *testing.T) {
	plain := NewForestSet(FlatConfig{})
	quant := NewForestSet(FlatConfig{Quantize: true})
	for _, f := range raggedForests(t, FlatConfig{}) {
		if err := plain.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range raggedForests(t, FlatConfig{Quantize: true}) {
		if err := quant.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	pb, qb := plain.Bytes(), quant.Bytes()
	if pb <= 0 || qb <= 0 {
		t.Fatalf("Bytes: plain %d, quantized %d, want both positive", pb, qb)
	}
	if qb >= pb {
		t.Fatalf("quantized index %d B not smaller than float64 index %d B", qb, pb)
	}
}
