package ml

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// tileRows is how many sample rows one unit of a fused classify pass
// scores: small enough that a batch of a few dozen rows still splits
// across workers, large enough that the cursor traffic is noise.
const tileRows = 8

// maxEntriesPerNode bounds a tree's index entries against its node
// count. An entry is one (internal node, leaf word) pair, so a balanced
// tree needs about one per node; only a tree whose left subtrees each
// span many leaf words — a comb of thousands of leaves, which no inducer
// grows on fingerprint data but a hostile snapshot can carry — needs
// more, and past this bound its index would grow quadratically.
const maxEntriesPerNode = 32

// entry is one QuickScorer condition: a sample whose key on feature
// exceeds key leaves the node right, and mask clears the node's
// left-subtree leaves in leaf word word.
type entry[K uint32 | uint64] struct {
	feature int32
	word    int32
	key     K
	mask    uint64
}

// index is the QuickScorer condition list of one key width: every
// entry of every fused tree, sorted by feature and then by key, stored
// as parallel arrays.
//
// The pass reads a compact view of them. Feature run r (all entries on
// feature feats[r]) lists its distinct keys in ascending order at
// ukeys[ustart[r]:], closed by a sentinel no sample key exceeds, and
// begin[u] is the first entry whose key is ukeys[u] (the sentinel's is
// the run's end). The entries a sample fails on feature feats[r] are
// then one contiguous range [begin[ustart[r]], begin[u]), u being
// the first distinct key at or above the sample's: a short key scan and
// a counted loop.
type index[K uint32 | uint64] struct {
	keys    []K
	words   []int32
	masks   []uint64
	feature []int32

	feats  []int32
	ustart []int32
	ukeys  []K
	begin  []int32
}

// ForestSet fuses many trained forests into one QuickScorer index
// (Lucchese et al., SIGIR 2015) answering every forest on every sample
// in one pass.
//
// Each tree's leaves are numbered left to right into one or more 64-bit
// leaf words, and each internal node becomes an entry (feature, order
// key, word, mask) whose mask clears the leaves of its left subtree.
// Entries are sorted by key within each feature. To score a sample the
// pass starts from all-ones leaf words and, feature by feature, ANDs
// the mask of every entry whose key is below the sample's key — every
// node the sample leaves right. The exit leaf of each tree is then the
// lowest set bit of its first non-zero word: no mask clears it, and the
// masks of the nodes its path leaves right clear every leaf left of it.
// The tree's vote is that leaf's bit in the per-word vote table. A pass
// touches only the conditions the sample fails, in key order, with no
// pointer chasing and one data-dependent branch per feature.
//
// A ForestSet is built empty (NewForestSet). Build replaces its contents
// in one sort, Append merges one more forest in linearly — the
// incremental path an enrolment takes — and Remove drops one forest and
// renumbers the rest in one pass. Mutation and reads must be externally
// synchronized (core.Bank holds its write lock across the mutators and
// its read lock across Votes); concurrent Votes calls are safe with each
// other.
type ForestSet struct {
	quantize bool

	ix64 index[uint64] // exact layout
	ix32 index[uint32] // quantized layout

	treeOff   []int32  // forest f's trees are [treeOff[f], treeOff[f+1])
	wordOff   []int32  // forest f's leaf words are [wordOff[f], wordOff[f+1])
	leafVotes []uint64 // bit l of word w: leaf l of that word votes positive
	head      []uint8  // head[w] is 1 when word w is its tree's first
}

// NewForestSet creates an empty index. cfg.Quantize selects the key
// width the index uses; fused forests must have been flattened under the
// same setting. cfg.MaxLeaves needs no handling here — each forest's
// flat layout already applied its cap.
func NewForestSet(cfg FlatConfig) *ForestSet {
	return &ForestSet{quantize: cfg.Quantize, treeOff: []int32{0}, wordOff: []int32{0}}
}

// Forests returns the number of fused forests.
func (fs *ForestSet) Forests() int { return len(fs.treeOff) - 1 }

// TreesOf returns forest f's tree count (forests may be ragged).
func (fs *ForestSet) TreesOf(f int) int {
	return int(fs.treeOff[f+1] - fs.treeOff[f])
}

// Reset empties the index, keeping the backing arrays for reuse.
func (fs *ForestSet) Reset() {
	fs.ix64.truncate(0)
	fs.ix32.truncate(0)
	fs.treeOff = fs.treeOff[:1]
	fs.wordOff = fs.wordOff[:1]
	fs.leafVotes = fs.leafVotes[:0]
	fs.head = fs.head[:0]
}

// Build replaces the index with the given forests, in order: one layout
// pass and one sort over all of their entries, where a Reset followed by
// one Append per forest would re-merge the growing index once per
// forest.
func (fs *ForestSet) Build(forests []*Forest) error {
	fs.Reset()
	var err error
	if fs.quantize {
		err = build(fs, &fs.ix32, forests, func(fl *flatForest) []float32 { return fl.threshold32 }, thresholdKey32)
	} else {
		err = build(fs, &fs.ix64, forests, func(fl *flatForest) []float64 { return fl.threshold }, thresholdKey64)
	}
	if err != nil {
		fs.Reset()
	}
	return err
}

// Append fuses one more trained forest into the index: its entries are
// laid out and sorted on their own, then merged into the index in one
// linear pass. The forest must use the flat layout precision the set
// was created with.
func (fs *ForestSet) Append(f *Forest) error {
	if fs.quantize {
		return appendForest(fs, &fs.ix32, f.flat, f.flat.threshold32, thresholdKey32)
	}
	return appendForest(fs, &fs.ix64, f.flat, f.flat.threshold, thresholdKey64)
}

// Remove drops forest f from the index in one pass over the entries:
// the survivors keep their sorted order, and leaf words past the dropped
// forest's renumber down. Later forests shift down one place.
func (fs *ForestSet) Remove(f int) {
	w0, w1 := fs.wordOff[f], fs.wordOff[f+1]
	if fs.quantize {
		fs.ix32.dropWords(w0, w1)
	} else {
		fs.ix64.dropWords(w0, w1)
	}
	fs.leafVotes = slices.Delete(fs.leafVotes, int(w0), int(w1))
	fs.head = slices.Delete(fs.head, int(w0), int(w1))
	trees := fs.treeOff[f+1] - fs.treeOff[f]
	fs.treeOff = slices.Delete(fs.treeOff, f, f+1)
	fs.wordOff = slices.Delete(fs.wordOff, f, f+1)
	for g := f; g < len(fs.treeOff); g++ {
		fs.treeOff[g] -= trees
		fs.wordOff[g] -= w1 - w0
	}
}

// Bytes returns the index's byte footprint.
func (fs *ForestSet) Bytes() int {
	b := (len(fs.treeOff)+len(fs.wordOff))*4 + len(fs.leafVotes)*9
	return b + fs.ix64.bytes(8) + fs.ix32.bytes(4)
}

// bytes returns ix's footprint for keys of keySize bytes.
func (ix *index[K]) bytes(keySize int) int {
	b := len(ix.keys) * (keySize + 4 + 8 + 4) // key, word, mask, feature
	return b + (len(ix.feats)+len(ix.ustart)+len(ix.begin))*4 + len(ix.ukeys)*keySize
}

// truncate keeps the first n entries and recomputes the pass view.
func (ix *index[K]) truncate(n int) {
	ix.keys, ix.words, ix.masks, ix.feature = ix.keys[:n], ix.words[:n], ix.masks[:n], ix.feature[:n]
	ix.indexRuns()
}

// push appends one entry.
func (ix *index[K]) push(e entry[K]) {
	ix.keys = append(ix.keys, e.key)
	ix.words = append(ix.words, e.word)
	ix.masks = append(ix.masks, e.mask)
	ix.feature = append(ix.feature, e.feature)
}

// set overwrites entry i.
func (ix *index[K]) set(i int, e entry[K]) {
	ix.keys[i], ix.words[i], ix.masks[i], ix.feature[i] = e.key, e.word, e.mask, e.feature
}

// shift moves entries [lo, hi) up by d places.
func (ix *index[K]) shift(lo, hi, d int) {
	copy(ix.keys[lo+d:], ix.keys[lo:hi])
	copy(ix.words[lo+d:], ix.words[lo:hi])
	copy(ix.masks[lo+d:], ix.masks[lo:hi])
	copy(ix.feature[lo+d:], ix.feature[lo:hi])
}

// indexRuns recomputes the pass's view of the sorted entries. Each run
// closes with an all-ones sentinel key: threshold keys never reach it (a
// NaN threshold keys as 0), so it sits at or above every sample key and
// above every threshold key.
func (ix *index[K]) indexRuns() {
	feature, keys := ix.feature, ix.keys
	feats, ustart, ukeys, begin := ix.feats[:0], ix.ustart[:0], ix.ukeys[:0], ix.begin[:0]
	for i := 0; i < len(feature); {
		f := feature[i]
		feats = append(feats, f)
		ustart = append(ustart, int32(len(ukeys)))
		ukeys, begin = append(ukeys, keys[i]), append(begin, int32(i))
		for i++; i < len(feature) && feature[i] == f; i++ {
			if keys[i] != keys[i-1] {
				ukeys, begin = append(ukeys, keys[i]), append(begin, int32(i))
			}
		}
		ukeys, begin = append(ukeys, ^K(0)), append(begin, int32(i))
	}
	ix.feats, ix.ustart, ix.ukeys, ix.begin = feats, ustart, ukeys, begin
}

// dropWords deletes the entries on leaf words [w0, w1) and renumbers
// the words above them down, keeping the survivors' order.
func (ix *index[K]) dropWords(w0, w1 int32) {
	n := 0
	for i, w := range ix.words {
		if w >= w0 && w < w1 {
			continue
		}
		if w >= w1 {
			w -= w1 - w0
		}
		ix.keys[n], ix.words[n], ix.masks[n], ix.feature[n] = ix.keys[i], w, ix.masks[i], ix.feature[i]
		n++
	}
	ix.truncate(n)
}

// build lays out every forest into fs and ix and sorts all of their
// entries at once.
func build[K uint32 | uint64, T float32 | float64](fs *ForestSet, ix *index[K], forests []*Forest, thresholds func(*flatForest) []T, key func(T) K) error {
	var ents []entry[K]
	for _, f := range forests {
		thr := thresholds(f.flat)
		if thr == nil {
			return layoutMismatch(fs)
		}
		var err error
		if ents, err = layoutForest(fs, ents, f.flat, thr, key); err != nil {
			return err
		}
	}
	for _, e := range sortEntries(ents) {
		ix.push(e)
	}
	ix.indexRuns()
	return nil
}

// sortEntries returns ents ordered by feature, then key: a counting sort
// by feature, then a sort of each feature's (short) group by key.
func sortEntries[K uint32 | uint64](ents []entry[K]) []entry[K] {
	var count []int
	for _, e := range ents {
		for int(e.feature) >= len(count) {
			count = append(count, 0)
		}
		count[e.feature]++
	}
	start := 0
	for f, n := range count {
		count[f] = start
		start += n
	}
	out := make([]entry[K], len(ents))
	for _, e := range ents {
		out[count[e.feature]] = e
		count[e.feature]++
	}
	for lo := 0; lo < len(out); {
		g := out[lo:count[out[lo].feature]]
		if len(g) > 16 {
			slices.SortFunc(g, func(a, b entry[K]) int { return cmp.Compare(a.key, b.key) })
		} else { // an enrolment's groups: a few entries each
			for i := 1; i < len(g); i++ {
				for k := i; k > 0 && g[k].key < g[k-1].key; k-- {
					g[k], g[k-1] = g[k-1], g[k]
				}
			}
		}
		lo += len(g)
	}
	return out
}

// appendForest lays out one forest and merges its sorted entries into
// ix in place, in one linear pass from the back: each new entry finds
// its place from the pass view's distinct keys, searched downwards
// alongside, and the existing entries past it move up as one block.
// Entries before the first insertion point never move. The pass view is
// then recomputed from the merged entries.
func appendForest[K uint32 | uint64, T float32 | float64](fs *ForestSet, ix *index[K], fl *flatForest, thr []T, key func(T) K) error {
	if thr == nil {
		return layoutMismatch(fs)
	}
	words := len(fs.leafVotes)
	ents, err := layoutForest(fs, nil, fl, thr, key)
	if err != nil {
		fs.leafVotes, fs.head = fs.leafVotes[:words], fs.head[:words]
		return err
	}
	ents = sortEntries(ents)
	feats, ustart, ukeys, begin := ix.feats, ix.ustart, ix.ukeys, ix.begin
	hi := int32(len(ix.keys)) // existing entries [0, hi) are not yet in place
	for _, e := range ents {
		ix.push(e) // grows the arrays; the merge places every entry
	}
	r, u := len(feats)-1, int32(len(ukeys)-1)
	for j := len(ents) - 1; j >= 0; j-- {
		e := ents[j]
		// lo counts the existing entries that sort at or before e.
		for r >= 0 && feats[r] > e.feature {
			r--
		}
		var lo int32
		if r >= 0 {
			sentinel := int32(len(ukeys) - 1)
			if r+1 < len(feats) {
				sentinel = ustart[r+1] - 1
			}
			if feats[r] < e.feature {
				lo = begin[sentinel]
			} else {
				for u = min(u, sentinel); u > ustart[r] && ukeys[u-1] > e.key; u-- {
				}
				lo = begin[u]
			}
		}
		ix.shift(int(lo), int(hi), j+1)
		ix.set(int(lo)+j, e)
		hi = lo
	}
	ix.indexRuns()
	return nil
}

func layoutMismatch(fs *ForestSet) error {
	return fmt.Errorf("ml: fusing a forest with a mismatched flat layout (set quantize=%v)", fs.quantize)
}

// layoutForest numbers the leaves of fl's trees into fresh leaf words
// of fs (recording each leaf's vote) and appends fl's entries to ents,
// then records the forest's tree range. Children always sit after their
// parent and every node but a root has one parent (induction order, and
// a decoded snapshot's validated invariant), so one backward pass counts
// each node's leaves and one forward pass hands each child its first
// leaf number — no recursion.
func layoutForest[K uint32 | uint64, T float32 | float64](fs *ForestSet, ents []entry[K], fl *flatForest, thr []T, key func(T) K) ([]entry[K], error) {
	leaves := make([]int32, len(fl.feature)) // leaves under node i
	first := make([]int32, len(fl.feature))  // number of node i's leftmost leaf
	// One entry per internal node while a tree's leaves fit one word.
	ents = slices.Grow(ents, (len(fl.feature)-len(fl.roots))/2)
	for t, root := range fl.roots {
		end := int32(len(fl.feature))
		if t+1 < len(fl.roots) {
			end = fl.roots[t+1]
		}
		for i := end - 1; i >= root; i-- {
			leaves[i] = 1
			if fl.feature[i] >= 0 {
				leaves[i] = leaves[fl.left[i]] + leaves[fl.right[i]]
			}
		}
		word0 := int32(len(fs.leafVotes))
		nw := (leaves[root] + 63) / 64
		fs.leafVotes = append(fs.leafVotes, make([]uint64, nw)...)
		fs.head = append(fs.head, 1)
		fs.head = append(fs.head, make([]uint8, nw-1)...)
		budget := len(ents) + maxEntriesPerNode*int(end-root)
		first[root] = 0
		for i := root; i < end; i++ {
			a := first[i]
			if fl.feature[i] < 0 {
				if thr[i] >= 0.5 {
					fs.leafVotes[word0+a/64] |= 1 << (a % 64)
				}
				continue
			}
			l := fl.left[i]
			first[l], first[fl.right[i]] = a, a+leaves[l]
			k := key(thr[i])
			for lo, hi := a, a+leaves[l]; lo < hi; {
				w := lo / 64
				top := min(hi, 64*(w+1))
				span := ^uint64(0) >> (64 - (top - lo)) << (lo % 64)
				ents = append(ents, entry[K]{feature: fl.feature[i], word: word0 + w, key: k, mask: ^span})
				lo = top
			}
			if len(ents) > budget {
				return nil, fmt.Errorf("ml: tree %d is too unbalanced to index (over %d entries per node)", t, maxEntriesPerNode)
			}
		}
	}
	fs.treeOff = append(fs.treeOff, fs.treeOff[len(fs.treeOff)-1]+int32(len(fl.roots)))
	fs.wordOff = append(fs.wordOff, int32(len(fs.leafVotes)))
	return ents, nil
}

// Order keys map floats onto unsigned integers whose order is the
// floats' order, so the pass compares integers: x <= t exactly when
// key(x) <= key(t). Positive floats set the sign bit, negative ones flip
// every bit, and −0 keys as +0. NaN compares false with everything, so
// a NaN sample keys above every threshold (it always goes right) and a
// NaN threshold keys below every sample (every sample goes right).

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

// keyRows returns the sample keys of m's rows, row-major, reusing buf's
// backing array.
func keyRows[K uint32 | uint64](buf []K, m *SampleMatrix, key func(float64) K) []K {
	need := m.rows * m.dim
	if cap(buf) < need {
		buf = make([]K, need)
	}
	buf = buf[:need]
	for i, v := range m.data[:need] {
		buf[i] = key(v)
	}
	return buf
}

// Votes runs the fused classify pass: votes[s*F+f] receives forest f's
// positive vote count on sample s, for every fused forest and every
// matrix row. len(votes) must be at least Rows()*Forests(), and rows
// must be as wide as every feature the forests split on. The pass keys
// the matrix once into the reused job's buffer — it never writes the
// matrix, so concurrent passes may share one. Rows are handed out in
// tiles of tileRows through an atomic cursor to the package's
// persistent worker pool; each vote count is written by exactly one
// worker, so the matrix is bit-identical to a sequential per-forest
// pass for any worker count (<= 0 selects GOMAXPROCS). Steady state
// allocates nothing: the job, its key buffer and its per-worker leaf
// words are reused and the caller owns votes and the matrix.
func (fs *ForestSet) Votes(m *SampleMatrix, votes []int32, workers int) {
	F := fs.Forests()
	rows := m.rows
	clear(votes[:rows*F])
	if F == 0 || rows == 0 {
		return
	}
	j := getVoteJob()
	j.fs, j.votes, j.rows, j.dim = fs, votes, rows, m.dim
	if fs.quantize {
		j.keys32 = keyRows(j.keys32, m, sampleKey32)
	} else {
		j.keys64 = keyRows(j.keys64, m, sampleKey64)
	}
	j.tiles = (rows + tileRows - 1) / tileRows
	j.cursor.Store(0)
	j.slot.Store(0)
	workers = min(defaultWorkers(workers), j.tiles)
	for len(j.leafWords) < workers {
		j.leafWords = append(j.leafWords, nil)
	}
	for w, v := range j.leafWords[:workers] {
		if cap(v) < len(fs.leafVotes) {
			v = make([]uint64, len(fs.leafVotes))
			for i := range v {
				v[i] = ^uint64(0)
			}
		}
		j.leafWords[w] = v[:len(fs.leafVotes)]
	}
	if workers > 1 {
		classifyPool.fanOut(j, &j.wg, workers-1)
	}
	j.run()
	j.wg.Wait()
	j.fs, j.votes = nil, nil
	putVoteJob(j)
}

// scoreRows fills the votes of sample rows [s0, s1) of the keyed
// samples xs (row stride dim) against index ix. v holds the leaf words,
// all ones on entry and again on return.
func scoreRows[K uint32 | uint64](fs *ForestSet, ix *index[K], xs []K, dim int, votes []int32, v []uint64, s0, s1 int) {
	F := fs.Forests()
	for s := s0; s < s1; s++ {
		ix.clearLeaves(v, xs[s*dim:(s+1)*dim])
		out := votes[s*F : (s+1)*F]
		for f := range out {
			w0, w1 := fs.wordOff[f], fs.wordOff[f+1]
			out[f] = exitVotes(v[w0:w1], fs.leafVotes[w0:w1], fs.head[w0:w1])
		}
	}
}

// clearLeaves ANDs into v the mask of every entry whose key is below the
// keyed sample x's key on the entry's feature.
func (ix *index[K]) clearLeaves(v []uint64, x []K) {
	ukeys, begin, words, masks := ix.ukeys, ix.begin, ix.words, ix.masks
	for r, f := range ix.feats {
		xf := x[f]
		u := ix.ustart[r]
		lo := begin[u]
		for ukeys[u] < xf {
			u++
		}
		andMasks(v, words[lo:begin[u]], masks[lo:begin[u]])
	}
}

// andMasks ANDs masks[e] into v[words[e]] for every e.
//
//go:noinline
func andMasks(v []uint64, words []int32, masks []uint64) {
	masks = masks[:len(words)]
	for e, w := range words {
		v[w] &= masks[e]
	}
}

// exitVotes counts the positive exit leaves of the trees whose leaf
// words are v, with vote table leafVotes and tree-start flags head, and
// sets every word back to all ones. It runs without a data-dependent
// branch: live is 1 from a tree's first word until its first non-zero
// word, whose lowest set bit is the exit leaf.
//
//go:noinline
func exitVotes(v, leafVotes []uint64, head []uint8) int32 {
	leafVotes, head = leafVotes[:len(v)], head[:len(v)]
	var acc, live uint64
	for w, x := range v {
		v[w] = ^uint64(0)
		live |= uint64(head[w])
		exit := x & -x             // the exit leaf's bit; 0 while the exit lies in a later word
		hit := leafVotes[w] & exit // non-zero exactly when that leaf votes positive
		acc += live & ((hit | -hit) >> 63)
		live &= (exit - 1) >> 63 // stays 1 exactly when x is 0
	}
	return int32(acc)
}
