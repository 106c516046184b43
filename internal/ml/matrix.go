package ml

// SampleMatrix is a dense row-major batch of fixed-size samples: row s
// occupies data[s*dim : (s+1)*dim]. The fused classification engine
// streams it through every forest of a ForestSet, and batch callers
// reuse one matrix across flushes (Reset keeps the backing arrays), so
// steady-state classification allocates nothing per sample — the
// pointer-chased [][]float64 form cost one slice header allocation per
// fingerprint per call.
//
// A classify pass only reads the matrix, so concurrent passes (the
// shard scatter) may share one.
type SampleMatrix struct {
	dim  int
	rows int
	data []float64
}

// Reset sizes the matrix to rows×dim, reusing the backing arrays when
// they are large enough. Row contents are undefined until filled (the
// fill paths overwrite every cell, padding included).
func (m *SampleMatrix) Reset(rows, dim int) {
	m.rows, m.dim = rows, dim
	need := rows * dim
	if cap(m.data) < need {
		m.data = make([]float64, need)
	} else {
		m.data = m.data[:need]
	}
}

// Rows returns the number of samples.
func (m *SampleMatrix) Rows() int { return m.rows }

// Dim returns the per-sample dimensionality.
func (m *SampleMatrix) Dim() int { return m.dim }

// Row returns sample s's backing slice for in-place filling.
func (m *SampleMatrix) Row(s int) []float64 {
	return m.data[s*m.dim : (s+1)*m.dim]
}

// SetRow copies x into row s, zero-padding when x is shorter than the
// matrix dimensionality.
func (m *SampleMatrix) SetRow(s int, x []float64) {
	row := m.Row(s)
	n := copy(row, x)
	for i := n; i < len(row); i++ {
		row[i] = 0
	}
}
