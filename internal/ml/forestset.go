package ml

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Tile geometry of the fused classify pass. A sample block bounds how
// many rows stream through one forest block before its nodes are
// re-fetched; a forest block groups consecutive forests to at least
// treeBlockTrees trees so a tile amortizes cursor traffic while its
// node arrays stay cache-resident (≈128 trees of paper-sized forests
// fit comfortably in L2 alongside a 64-row sample block).
const (
	sampleBlock    = 64
	treeBlockTrees = 128
)

// lanes is how many trees of one forest walk a sample in lockstep.
const lanes = 8

// fnode is one arena node. An internal node holds its split feature,
// its threshold's order key and its children, next[0] left and next[1]
// right. A leaf's feature is 0, both children are the leaf itself, and
// its key is its vote bit: 1 when its positive probability is at least
// 0.5.
type fnode[K uint32 | uint64] struct {
	next    [2]int32
	feature int32
	key     K
}

// fblock is one forest block: the consecutive forest range [f0, f1).
type fblock struct {
	f0, f1 int32
}

// ForestSet fuses many trained forests into one contiguous multi-forest
// arena laid out for a branch-free walk: one fnode per tree node,
// rebased onto a shared node array, with roots grouped by forest
// (rootOff[f] delimits forest f's roots). Each forest's trees are
// stored deepest first and walk in groups of lanes trees; a group's
// step count is the depth of its first, deepest tree.
//
// One Votes pass answers all forests × all samples. A walk step is
// i = next[borrow], where borrow is the carry out of the unsigned
// subtraction key − x[feature]: 1 exactly when the sample lies right of
// the threshold. A tree that reaches its leaf early steps in place, so
// every tree of a group walks for the group's step count with no
// data-dependent branch, and the lanes trees of a group walk one sample
// together, their dependent loads overlapping.
//
// A ForestSet is built empty (NewForestSet), grows by Append — the
// incremental path an enrolment takes — and rebuilds from scratch via
// Reset + Appends when a forest leaves the set. Mutation and reads must
// be externally synchronized (core.Bank holds its write lock across
// Append/Reset and its read lock across Votes); concurrent Votes calls
// are safe with each other.
type ForestSet struct {
	quantize bool

	nodes64 []fnode[uint64] // exact layout
	nodes32 []fnode[uint32] // quantized layout

	roots   []int32
	depth   []int32 // depth[r]: tree r's deepest root-to-leaf path, in steps
	rootOff []int32
	blocks  []fblock
}

// NewForestSet creates an empty arena. cfg.Quantize selects which node
// array (and key width) the arena populates; appended forests must
// have been flattened under the same setting. cfg.MaxLeaves needs no handling
// here — each forest's flat layout already applied its cap.
func NewForestSet(cfg FlatConfig) *ForestSet {
	return &ForestSet{quantize: cfg.Quantize, rootOff: []int32{0}}
}

// Forests returns the number of fused forests.
func (fs *ForestSet) Forests() int { return len(fs.rootOff) - 1 }

// TreesOf returns forest f's tree count (forests may be ragged).
func (fs *ForestSet) TreesOf(f int) int {
	return int(fs.rootOff[f+1] - fs.rootOff[f])
}

// Reset empties the arena, keeping the backing arrays for reuse.
func (fs *ForestSet) Reset() {
	fs.nodes64 = fs.nodes64[:0]
	fs.nodes32 = fs.nodes32[:0]
	fs.roots = fs.roots[:0]
	fs.depth = fs.depth[:0]
	fs.rootOff = append(fs.rootOff[:0], 0)
	fs.blocks = fs.blocks[:0]
}

// Append fuses one more trained forest into the arena, rebasing its
// node indices onto the shared arrays and keying its thresholds. The
// forest must use the same flat layout precision the set was created
// with.
func (fs *ForestSet) Append(f *Forest) error {
	fl := f.flat
	if fs.quantize != (fl.threshold32 != nil) {
		return fmt.Errorf("ml: appending a forest with a mismatched flat layout (set quantize=%v)", fs.quantize)
	}
	var base int32
	if fs.quantize {
		base = int32(len(fs.nodes32))
		fs.nodes32 = appendNodes(fs.nodes32, fl, fl.threshold32, thresholdKey32)
	} else {
		base = int32(len(fs.nodes64))
		fs.nodes64 = appendNodes(fs.nodes64, fl, fl.threshold, thresholdKey64)
	}
	// A vote count is a sum over trees, so tree order is free: deepest
	// first, a group's first tree is its deepest and no group pairs a
	// shallow tree with a deep one.
	depth := fl.depths()
	order := make([]int, len(depth))
	for t := range order {
		order[t] = t
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(depth[b], depth[a]) })
	for _, t := range order {
		fs.roots = append(fs.roots, fl.roots[t]+base)
		fs.depth = append(fs.depth, depth[t])
	}
	fs.rootOff = append(fs.rootOff, int32(len(fs.roots)))
	fs.rebuildBlocks()
	return nil
}

// appendNodes appends fl's nodes to the arena nodes, rebased onto its
// current length, keying thresholds with key.
func appendNodes[K uint32 | uint64, T float32 | float64](nodes []fnode[K], fl *flatForest, threshold []T, key func(T) K) []fnode[K] {
	base := int32(len(nodes))
	for i, feat := range fl.feature {
		if feat < 0 {
			j := base + int32(i)
			var vote K
			if threshold[i] >= 0.5 {
				vote = 1
			}
			nodes = append(nodes, fnode[K]{next: [2]int32{j, j}, key: vote})
			continue
		}
		nodes = append(nodes, fnode[K]{
			next:    [2]int32{base + fl.left[i], base + fl.right[i]},
			feature: feat,
			key:     key(threshold[i]),
		})
	}
	return nodes
}

// depths returns every tree's root-to-leaf depth in edges, its deepest
// path. Children always sit after their parent (induction order, and a
// decoded snapshot's validated invariant), so one backward pass sees
// both children's heights before the parent's.
func (f *flatForest) depths() []int32 {
	height := make([]int32, len(f.feature))
	for i := len(height) - 1; i >= 0; i-- {
		if f.feature[i] >= 0 {
			height[i] = 1 + max(height[f.left[i]], height[f.right[i]])
		}
	}
	out := make([]int32, len(f.roots))
	for t, r := range f.roots {
		out[t] = height[r]
	}
	return out
}

// rebuildBlocks repartitions the forests into tree blocks of at least
// treeBlockTrees trees (the last block takes the remainder).
func (fs *ForestSet) rebuildBlocks() {
	fs.blocks = fs.blocks[:0]
	F := fs.Forests()
	start, trees := 0, 0
	for f := 0; f < F; f++ {
		trees += fs.TreesOf(f)
		if trees >= treeBlockTrees {
			fs.blocks = append(fs.blocks, fblock{int32(start), int32(f + 1)})
			start, trees = f+1, 0
		}
	}
	if start < F {
		fs.blocks = append(fs.blocks, fblock{int32(start), int32(F)})
	}
}

// Bytes returns the arena's byte footprint (the quantity tree blocks
// are sized against).
func (fs *ForestSet) Bytes() int {
	b := (len(fs.roots) + len(fs.depth) + len(fs.rootOff)) * 4
	return b + len(fs.nodes32)*16 + len(fs.nodes64)*24 // fnode sizes, padding included
}

// Order keys map floats onto unsigned integers whose order is the
// floats' order, so the walk's comparison is an integer subtraction:
// x <= t exactly when key(x) <= key(t). Positive floats set the sign
// bit, negative ones flip every bit, and −0 keys as +0. NaN compares
// false with everything, so a NaN sample keys above every threshold (it
// always goes right) and a NaN threshold keys below every sample (every
// sample goes right).

func orderKey64(v float64) uint64 {
	if v == 0 {
		v = 0 // −0 → +0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

func sampleKey64(v float64) uint64 {
	if v != v {
		return math.MaxUint64
	}
	return orderKey64(v)
}

func thresholdKey64(v float64) uint64 {
	if v != v {
		return 0
	}
	return orderKey64(v)
}

func orderKey32(v float32) uint32 {
	if v == 0 {
		v = 0
	}
	b := math.Float32bits(v)
	if b>>31 != 0 {
		return ^b
	}
	return b | 1<<31
}

// sampleKey32 keys a sample value for the quantized layout: the value
// rounds to float32 first, as the branchy walk (votesRange32) compares
// it.
func sampleKey32(v float64) uint32 {
	if v != v {
		return math.MaxUint32
	}
	return orderKey32(float32(v))
}

func thresholdKey32(v float32) uint32 {
	if v != v {
		return 0
	}
	return orderKey32(v)
}

// keyRows returns the sample keys of m's rows, row-major with stride
// max(dim, 1) — a leaf reads feature 0, so even a zero-width row needs
// one cell — reusing buf's backing array.
func keyRows[K uint32 | uint64](buf []K, m *SampleMatrix, key func(float64) K) ([]K, int) {
	stride := max(m.dim, 1)
	need := m.rows * stride
	if cap(buf) < need {
		buf = make([]K, need)
	}
	buf = buf[:need]
	if stride != m.dim {
		clear(buf)
		return buf, stride
	}
	for i, v := range m.data[:need] {
		buf[i] = key(v)
	}
	return buf, stride
}

// Votes runs the fused classify pass: votes[s*F+f] receives forest f's
// positive vote count on sample s, for every enrolled forest and every
// matrix row. len(votes) must be at least Rows()*Forests(). The pass
// keys the matrix once into the pooled job's buffer — it never writes
// the matrix, so concurrent passes may share one. Work is tiled into
// (forest block × sample block) units handed out through an atomic
// cursor to the package's persistent worker pool; vote counts are
// integers written by exactly one worker each, so the matrix is
// bit-identical to a sequential per-forest pass for any worker count
// (<= 0 selects GOMAXPROCS). Steady state allocates nothing: the job
// struct and its key buffer are pooled and the caller owns votes and
// the matrix.
func (fs *ForestSet) Votes(m *SampleMatrix, votes []int32, workers int) {
	F := fs.Forests()
	rows := m.rows
	clear(votes[:rows*F])
	if F == 0 || rows == 0 {
		return
	}
	j := voteJobPool.Get().(*voteJob)
	j.fs, j.votes, j.rows = fs, votes, rows
	if fs.quantize {
		j.keys32, j.stride = keyRows(j.keys32, m, sampleKey32)
	} else {
		j.keys64, j.stride = keyRows(j.keys64, m, sampleKey64)
	}
	j.nSB = (rows + sampleBlock - 1) / sampleBlock
	j.tiles = len(fs.blocks) * j.nSB
	j.cursor.Store(0)
	if workers = min(defaultWorkers(workers), j.tiles); workers > 1 {
		classifyPool.fanOut(j, &j.wg, workers-1)
	}
	j.run()
	j.wg.Wait()
	j.fs, j.votes = nil, nil
	voteJobPool.Put(j)
}

// tileVotes accumulates one forest block's votes over sample rows
// [s0, s1) of the keyed samples xs (row stride stride), against the
// arena's nodes. The loop order is forest → group → sample: a group's
// node paths stay hot while the sample block streams through it. Trees
// left over after a forest's full groups walk one at a time, each for
// its own depth.
func tileVotes[K uint32 | uint64](fs *ForestSet, nodes []fnode[K], xs []K, stride int, votes []int32, fb fblock, s0, s1 int) {
	F := fs.Forests()
	for f := fb.f0; f < fb.f1; f++ {
		roots := fs.roots[fs.rootOff[f]:fs.rootOff[f+1]]
		depth := fs.depth[fs.rootOff[f]:fs.rootOff[f+1]]
		for g := 0; g < len(roots); g += lanes {
			group := roots[g:min(g+lanes, len(roots))]
			for s := s0; s < s1; s++ {
				x := xs[s*stride : (s+1)*stride]
				var acc int32
				if len(group) == lanes {
					i0, i1, i2, i3 := group[0], group[1], group[2], group[3]
					i4, i5, i6, i7 := group[4], group[5], group[6], group[7]
					for k := depth[g]; k > 0; k-- {
						i0 = step(nodes, x, i0)
						i1 = step(nodes, x, i1)
						i2 = step(nodes, x, i2)
						i3 = step(nodes, x, i3)
						i4 = step(nodes, x, i4)
						i5 = step(nodes, x, i5)
						i6 = step(nodes, x, i6)
						i7 = step(nodes, x, i7)
					}
					acc = int32(nodes[i0].key) + int32(nodes[i1].key) + int32(nodes[i2].key) + int32(nodes[i3].key) +
						int32(nodes[i4].key) + int32(nodes[i5].key) + int32(nodes[i6].key) + int32(nodes[i7].key)
				} else {
					for t, i := range group {
						for k := depth[g+t]; k > 0; k-- {
							i = step(nodes, x, i)
						}
						acc += int32(nodes[i].key)
					}
				}
				votes[s*F+int(f)] += acc
			}
		}
	}
}

// step moves one tree from node i to the child the keyed sample x
// selects: the borrow of key − x[feature] is 1 exactly when the sample
// lies right of the threshold. A leaf steps to itself. (b&1 lets the
// compiler drop the bounds check on next.)
func step[K uint32 | uint64](nodes []fnode[K], x []K, i int32) int32 {
	nd := &nodes[i]
	_, b := bits.Sub64(uint64(nd.key), uint64(x[nd.feature]), 0)
	return nd.next[b&1]
}
