// Package editdist implements the Damerau-Levenshtein edit distance used
// by IoT Sentinel's discrimination stage (paper §IV-B2).
//
// The variant implemented is optimal string alignment (OSA): insertion,
// deletion, substitution, and transposition of two adjacent symbols, with
// no symbol edited twice. Fingerprints F are treated as words whose
// characters are whole packet feature vectors; two characters are equal
// only if all 23 features match.
//
// Two kernels compute it. DistanceBuf is the three-row dynamic program
// over any comparable characters. Pattern is the discrimination stage's
// kernel: characters interned to small integer symbols, a probe of at
// most 64 symbols compiled once into per-symbol match masks, and each
// reference scored by Hyyrö's bit-vector OSA recurrence (2003), one
// word-wide step per reference symbol. A probe longer than 64 symbols
// falls back to the dynamic program over its symbols.
package editdist

// Rows is caller-owned scratch for DistanceBuf: the three DP rows of the
// OSA recurrence. A zero Rows is ready to use; it grows as needed and is
// reused across calls, so a hot loop comparing many sequence pairs
// performs no per-comparison allocations. A Rows must not be shared
// between goroutines; give each worker its own.
type Rows struct {
	prev2, prev, cur []int
}

// grow ensures each row holds at least n ints.
func (r *Rows) grow(n int) {
	if cap(r.prev2) < n {
		r.prev2 = make([]int, n)
		r.prev = make([]int, n)
		r.cur = make([]int, n)
		return
	}
	r.prev2 = r.prev2[:n]
	r.prev = r.prev[:n]
	r.cur = r.cur[:n]
}

// Distance returns the OSA Damerau-Levenshtein distance between a and b.
// It runs in O(len(a)*len(b)) time and O(min) memory (three rows).
func Distance[T comparable](a, b []T) int {
	var r Rows
	return DistanceBuf(a, b, &r)
}

// DistanceBuf is Distance with caller-owned scratch rows: it allocates
// nothing once r has grown to the longest b seen. This is the variant the
// discrimination stage uses, where every candidate×reference comparison
// would otherwise allocate three rows.
func DistanceBuf[T comparable](a, b []T, r *Rows) int {
	n, m := len(a), len(b)
	if n == 0 {
		return m
	}
	if m == 0 {
		return n
	}

	r.grow(m + 1)
	prev2 := r.prev2 // row i-2
	prev := r.prev   // row i-1
	cur := r.cur     // row i
	for j := 0; j <= m; j++ {
		prev[j] = j
	}

	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d := min3(
				prev[j]+1,      // deletion
				cur[j-1]+1,     // insertion
				prev[j-1]+cost, // substitution / match
			)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if t := prev2[j-2] + 1; t < d {
					d = t // adjacent transposition
				}
			}
			cur[j] = d
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[m]
}

// Normalized returns the distance divided by the length of the longer
// sequence, bounded on [0,1]. Two empty sequences have distance 0.
func Normalized[T comparable](a, b []T) float64 {
	var r Rows
	return NormalizedBuf(a, b, &r)
}

// NormalizedBuf is Normalized with caller-owned scratch rows.
func NormalizedBuf[T comparable](a, b []T, r *Rows) float64 {
	longest := len(a)
	if len(b) > longest {
		longest = len(b)
	}
	if longest == 0 {
		return 0
	}
	return float64(DistanceBuf(a, b, r)) / float64(longest)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Pattern is a probe sequence of interned symbols compiled for repeated
// OSA distance queries (see the package comment). A zero Pattern is
// ready to Compile; it keeps its buffers across compilations, so a hot
// loop scoring many probes allocates nothing once they have grown. A
// Pattern must not be shared between goroutines.
type Pattern struct {
	syms []int32
	peq  []uint64 // peq[c] bit i: syms[i] == c (probes of at most 64 symbols)
	rows Rows     // the dynamic program's rows, for longer probes
}

// Compile makes syms the pattern, over the symbol alphabet [0, alphabet).
// A pattern symbol outside it matches nothing: callers give a probe
// character the reference alphabet lacks a negative symbol.
func (p *Pattern) Compile(syms []int32, alphabet int) {
	for _, c := range p.syms {
		if uint(c) < uint(len(p.peq)) {
			p.peq[c] = 0
		}
	}
	p.syms = append(p.syms[:0], syms...)
	if cap(p.peq) < alphabet {
		p.peq = make([]uint64, alphabet)
	}
	p.peq = p.peq[:alphabet]
	if len(syms) > 64 {
		return
	}
	for i, c := range syms {
		if uint(c) < uint(alphabet) {
			p.peq[c] |= 1 << uint(i)
		}
	}
}

// Distance returns the OSA distance between the pattern and text, whose
// symbols must lie in the pattern's alphabet.
func (p *Pattern) Distance(text []int32) int {
	m := len(p.syms)
	switch {
	case m == 0:
		return len(text)
	case m > 64:
		return DistanceBuf(p.syms, text, &p.rows)
	}
	// Hyyrö's recurrence keeps column j of the DP as vertical deltas:
	// bit i of vp (vn) is set when D[i+1][j] - D[i][j] is +1 (-1). d0
	// marks the zero diagonal deltas, and tr adds the transpositions:
	// pattern i matches text j-1 and pattern i-1 matches text j, on a
	// diagonal the previous column did not already cover.
	vp, vn, d0, pmOld := ^uint64(0), uint64(0), uint64(0), uint64(0)
	last := uint64(1) << uint(m-1)
	dist := m
	for _, c := range text {
		var pm uint64
		if uint(c) < uint(len(p.peq)) {
			pm = p.peq[c]
		}
		tr := (^d0 & pm) << 1 & pmOld
		d0 = ((pm & vp) + vp) ^ vp | pm | vn | tr
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		dist += int(hp&last>>uint(m-1)) - int(hn&last>>uint(m-1))
		hp = hp<<1 | 1
		hn <<= 1
		vp = hn | ^(d0 | hp)
		vn = hp & d0
		pmOld = pm
	}
	return dist
}

// Normalized returns Distance divided by the length of the longer of
// the pattern and text, bounded on [0,1]; NormalizedBuf's value to the
// bit.
func (p *Pattern) Normalized(text []int32) float64 {
	longest := max(len(p.syms), len(text))
	if longest == 0 {
		return 0
	}
	return float64(p.Distance(text)) / float64(longest)
}
