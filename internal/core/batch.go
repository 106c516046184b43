package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/ml"
)

// classifyScratch is the pooled per-call state of a fused stage-one
// pass: the dense row-major sample matrix and the votes matrix. Pooling
// it (rather than allocating per flush) is what makes the steady-state
// classify path allocation-free per verdict — only the returned accept
// name lists allocate, and the ClassifyVotes kernel avoids even those.
type classifyScratch struct {
	m     ml.SampleMatrix
	votes []int32
}

var classifyScratchPool = sync.Pool{New: func() any { return new(classifyScratch) }}

// growInt32 returns s resized to n, reallocating only on growth.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// AcceptMask is a reusable bitmask over the (sample, forest) cells of a
// fused classify pass: bit s*F+f is set when forest f accepted sample
// s. It is the allocation-free accept representation ClassifyVotes
// emits; Bit indexes it.
type AcceptMask []uint64

// Bit reports whether cell i is set.
func (m AcceptMask) Bit(i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

func (m AcceptMask) set(i int) { m[i>>6] |= 1 << (uint(i) & 63) }

// growMask returns m resized (and cleared) to hold bits bits.
func growMask(m AcceptMask, bits int) AcceptMask {
	n := (bits + 63) / 64
	if cap(m) < n {
		return make(AcceptMask, n)
	}
	m = m[:n]
	for i := range m {
		m[i] = 0
	}
	return m
}

// fillMatrix sizes m to the batch and fills each row with the
// fingerprint's fixed-size form in place (no per-fingerprint
// allocation).
func (b *Bank) fillMatrix(m *ml.SampleMatrix, fps []*fingerprint.Fingerprint) {
	m.Reset(len(fps), b.cfg.FixedPackets*features.NumFeatures)
	for i, f := range fps {
		f.FixedNInto(m.Row(i), b.cfg.FixedPackets)
	}
}

// IdentifyBatch identifies every fingerprint of fps and returns the
// results in input order. results[i] is bit-identical to what
// b.Identify(fps[i]) returns, for any worker count: stage-one votes are
// integer tree counts and stage-two reference sampling is a pure
// function of (bank, fingerprint), so neither depends on scheduling.
//
// Stage one runs through the fused multi-forest index: the batch fills
// a pooled dense sample matrix (fingerprint.FixedNInto, no per-sample
// allocation) and one tiled pass over ml.ForestSet answers every
// enrolled type × every sample on the shared worker pool. Stage two
// fans the multi-accept fingerprints across workers for edit-distance
// discrimination with per-worker scratch buffers. workers <= 0 selects
// GOMAXPROCS. The bank's read lock is held for the duration, so a
// concurrent Enroll waits for the batch (and vice versa).
func (b *Bank) IdentifyBatch(fps []*fingerprint.Fingerprint, workers int) []Result {
	out := make([]Result, len(fps))
	if len(fps) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	scr := classifyScratchPool.Get().(*classifyScratch)
	b.fillMatrix(&scr.m, fps)

	b.rw.RLock()
	defer b.rw.RUnlock()

	accepted := b.classifyMatrixLocked(&scr.m, scr, workers)
	classifyScratchPool.Put(scr)

	// Stage two: resolve every fingerprint, discriminating multi-accepts.
	// Work is handed out through an atomic cursor rather than static
	// chunks because discrimination cost varies wildly between samples
	// (zero for single accepts, O(|F|²) per reference otherwise).
	if workers > len(fps) {
		workers = len(fps)
	}
	if workers <= 1 {
		var scratch identScratch
		for i, f := range fps {
			out[i] = b.resolveLocked(f, accepted[i], &scratch)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch identScratch
			for {
				i := int(next.Add(1)) - 1
				if i >= len(fps) {
					return
				}
				out[i] = b.resolveLocked(fps[i], accepted[i], &scratch)
			}
		}()
	}
	wg.Wait()
	return out
}

// classifyMatrixLocked runs the fused stage one over a prepared sample
// matrix: one ml.ForestSet.Votes pass fills scr.votes, then the integer
// counts resolve against the per-forest minVotes thresholds into accept
// name lists in enrolment order. Callers hold the read lock; scr
// provides the pooled votes matrix (scr.m need not be the matrix passed
// in).
func (b *Bank) classifyMatrixLocked(m *ml.SampleMatrix, scr *classifyScratch, workers int) [][]string {
	rows := m.Rows()
	accepted := make([][]string, rows)
	F := len(b.types)
	if F == 0 || rows == 0 {
		return accepted
	}
	scr.votes = growInt32(scr.votes, rows*F)
	start := time.Now()
	b.fused.Votes(m, scr.votes, workers)
	b.classifyNanos.Add(uint64(time.Since(start)))
	b.classifyFPs.Add(uint64(rows))
	for s := 0; s < rows; s++ {
		base := s * F
		for f := 0; f < F; f++ {
			if scr.votes[base+f] >= b.minVotes[f] {
				accepted[s] = append(accepted[s], b.types[f].name)
			}
		}
	}
	return accepted
}

// ClassifyVotes is the zero-allocation fused classify kernel: one pass
// over the prepared sample matrix fills *votes (votes[s*F+f] = forest
// f's positive vote count on sample s) and *accepts (bit s*F+f set when
// the count clears the forest's accept threshold), where F — returned —
// is the number of enrolled types at pass time. Both slices are resized
// through their pointers, so steady-state reuse allocates nothing per
// verdict; accepts resolve bit-identically to ClassifyOracle. The accept
// names for cell (s, f) are Types()[f] — callers wanting name lists use
// ClassifyMatrix instead. workers <= 0 selects GOMAXPROCS.
func (b *Bank) ClassifyVotes(m *ml.SampleMatrix, votes *[]int32, accepts *AcceptMask, workers int) int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	rows := m.Rows()
	F := len(b.types)
	n := rows * F
	*votes = growInt32(*votes, n)
	*accepts = growMask(*accepts, n)
	if n == 0 {
		return F
	}
	start := time.Now()
	b.fused.Votes(m, *votes, workers)
	b.classifyNanos.Add(uint64(time.Since(start)))
	b.classifyFPs.Add(uint64(rows))
	v, a := *votes, *accepts
	for s := 0; s < rows; s++ {
		base := s * F
		for f := 0; f < F; f++ {
			if v[base+f] >= b.minVotes[f] {
				a.set(base + f)
			}
		}
	}
	return F
}

// ClassifyMatrix runs stage one over a prepared sample matrix (rows
// filled with FixedN-form fingerprints under this bank's FixedPackets):
// accepted[s] lists the device-types whose classifier accepts row s, in
// enrolment order. It is the shard scatter's entry point — every local
// shard of a flush classifies one shared pooled matrix instead of
// re-deriving F′ per shard. workers <= 0 selects GOMAXPROCS.
func (b *Bank) ClassifyMatrix(m *ml.SampleMatrix, workers int) [][]string {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b.rw.RLock()
	defer b.rw.RUnlock()
	scr := classifyScratchPool.Get().(*classifyScratch)
	accepted := b.classifyMatrixLocked(m, scr, workers)
	classifyScratchPool.Put(scr)
	return accepted
}

// ClassifyBatchFixed runs stage one only, over a batch of precomputed
// fixed-size fingerprints (as returned by Fingerprint.FixedN with the
// bank's FixedPackets): accepted[i] lists the device-types whose
// classifier accepts fixed[i], in this bank's enrolment order.
// workers <= 0 selects GOMAXPROCS.
func (b *Bank) ClassifyBatchFixed(fixed [][]float64, workers int) [][]string {
	scr := classifyScratchPool.Get().(*classifyScratch)
	scr.m.Reset(len(fixed), b.cfg.FixedPackets*features.NumFeatures)
	for i, x := range fixed {
		scr.m.SetRow(i, x)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b.rw.RLock()
	accepted := b.classifyMatrixLocked(&scr.m, scr, workers)
	b.rw.RUnlock()
	classifyScratchPool.Put(scr)
	return accepted
}

// ClassifyBatch runs stage one only, over a batch of full fingerprints:
// the bank computes each fingerprint's fixed-size form itself (into the
// pooled matrix) and accepted[i] lists the device-types whose
// classifier accepts fps[i], in this bank's enrolment order.
// workers <= 0 selects GOMAXPROCS. This is the Shard entry point
// ShardedBank scatters a flush through — taking full fingerprints
// (rather than precomputed F′ vectors) is what lets a remote shard ship
// the batch over the packed wire codec and derive F′ on its own side of
// the connection.
func (b *Bank) ClassifyBatch(fps []*fingerprint.Fingerprint, workers int) [][]string {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scr := classifyScratchPool.Get().(*classifyScratch)
	b.fillMatrix(&scr.m, fps)
	b.rw.RLock()
	accepted := b.classifyMatrixLocked(&scr.m, scr, workers)
	b.rw.RUnlock()
	classifyScratchPool.Put(scr)
	return accepted
}

// ClassifyBatchOracle is the per-forest reference implementation of
// ClassifyBatchFixed: one forest at a time over the whole batch through
// Forest.PredictProbBatch, exactly the pre-fusion stage one. Kept as
// the bit-equality oracle (and benchmark baseline) for the fused
// engine; not a serving path.
func (b *Bank) ClassifyBatchOracle(fixed [][]float64, workers int) [][]string {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b.rw.RLock()
	defer b.rw.RUnlock()
	accepted := make([][]string, len(fixed))
	for _, tm := range b.types {
		probs := tm.forest.PredictProbBatch(fixed, workers)
		for i, p := range probs {
			if p >= b.cfg.AcceptThreshold {
				accepted[i] = append(accepted[i], tm.name)
			}
		}
	}
	return accepted
}
