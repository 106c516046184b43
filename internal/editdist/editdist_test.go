package editdist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func runes(s string) []rune { return []rune(s) }

func TestDistanceKnownValues(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"ca", "abc", 3}, // OSA: cannot reuse edited substring (true DL would be 2)
		{"ab", "ba", 1},  // adjacent transposition
		{"abcd", "acbd", 1},
		{"abcd", "badc", 2},
		{"a", "b", 1},
		{"abcdef", "abdcef", 1},
		{"teh", "the", 1},
	}
	for _, tt := range tests {
		if got := Distance(runes(tt.a), runes(tt.b)); got != tt.want {
			t.Errorf("Distance(%q, %q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestNormalizedBounds(t *testing.T) {
	if got := Normalized(runes("abc"), runes("abc")); got != 0 {
		t.Errorf("Normalized(equal) = %v, want 0", got)
	}
	if got := Normalized(runes("abc"), runes("xyz")); got != 1 {
		t.Errorf("Normalized(disjoint same length) = %v, want 1", got)
	}
	if got := Normalized(runes(""), runes("")); got != 0 {
		t.Errorf("Normalized(empty, empty) = %v, want 0", got)
	}
	if got := Normalized(runes(""), runes("abcd")); got != 1 {
		t.Errorf("Normalized(empty, abcd) = %v, want 1", got)
	}
	// Division is by the longer length.
	if got := Normalized(runes("ab"), runes("abcd")); got != 0.5 {
		t.Errorf("Normalized(ab, abcd) = %v, want 0.5", got)
	}
}

func TestDistanceProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}

	// Identity: d(a,a) == 0.
	identity := func(a []byte) bool { return Distance(a, a) == 0 }
	if err := quick.Check(identity, cfg); err != nil {
		t.Error("identity:", err)
	}

	// Symmetry: d(a,b) == d(b,a).
	symmetry := func(a, b []byte) bool { return Distance(a, b) == Distance(b, a) }
	if err := quick.Check(symmetry, cfg); err != nil {
		t.Error("symmetry:", err)
	}

	// Bounds: |len(a)-len(b)| <= d <= max(len(a), len(b)).
	bounds := func(a, b []byte) bool {
		d := Distance(a, b)
		diff := len(a) - len(b)
		if diff < 0 {
			diff = -diff
		}
		maxLen := len(a)
		if len(b) > maxLen {
			maxLen = len(b)
		}
		return d >= diff && d <= maxLen
	}
	if err := quick.Check(bounds, cfg); err != nil {
		t.Error("bounds:", err)
	}

	// Normalized is within [0,1].
	norm := func(a, b []byte) bool {
		v := Normalized(a, b)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(norm, cfg); err != nil {
		t.Error("normalized bounds:", err)
	}
}

func TestSingleEditDistancesAreOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := []byte("abcdefghijklmnop")
	for trial := 0; trial < 100; trial++ {
		b := append([]byte(nil), base...)
		switch rng.Intn(4) {
		case 0: // substitution
			b[rng.Intn(len(b))] = 'z'
		case 1: // deletion
			i := rng.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		case 2: // insertion
			i := rng.Intn(len(b) + 1)
			b = append(b[:i], append([]byte{'z'}, b[i:]...)...)
		case 3: // adjacent transposition
			i := rng.Intn(len(b) - 1)
			if b[i] == b[i+1] {
				continue // swap of equal symbols is distance 0
			}
			b[i], b[i+1] = b[i+1], b[i]
		}
		if d := Distance(base, b); d > 1 {
			t.Fatalf("single edit gave distance %d (result %q)", d, b)
		}
	}
}

func TestDistanceIntSlices(t *testing.T) {
	a := []int{1, 2, 3, 4}
	b := []int{1, 3, 2, 4}
	if got := Distance(a, b); got != 1 {
		t.Errorf("Distance(int transposition) = %d, want 1", got)
	}
}

func TestDistanceBufMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rows Rows
	for trial := 0; trial < 200; trial++ {
		a := make([]int, rng.Intn(40))
		b := make([]int, rng.Intn(40))
		for i := range a {
			a[i] = rng.Intn(5)
		}
		for i := range b {
			b[i] = rng.Intn(5)
		}
		// The same Rows is reused across trials of varying lengths.
		if got, want := DistanceBuf(a, b, &rows), Distance(a, b); got != want {
			t.Fatalf("DistanceBuf(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got, want := NormalizedBuf(a, b, &rows), Normalized(a, b); got != want {
			t.Fatalf("NormalizedBuf(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestDistanceBufAllocFree(t *testing.T) {
	a := []byte("the quick brown fox jumps over the lazy dog")
	b := []byte("the quack brown fox jumped over a lazy dog")
	var rows Rows
	DistanceBuf(a, b, &rows) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		DistanceBuf(a, b, &rows)
	})
	if allocs != 0 {
		t.Errorf("DistanceBuf allocated %.1f objects per run with warm scratch, want 0", allocs)
	}
}

func BenchmarkDistance100x100(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := make([]int, 100)
	y := make([]int, 100)
	for i := range x {
		x[i] = rng.Intn(20)
		y[i] = rng.Intn(20)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Distance(x, y)
	}
}

// osaPair draws a pattern and a text over an alphabet of 1..300
// symbols, lengths 0..70. Half the time the text is the pattern with
// adjacent transpositions and a few point edits, so the transposition
// term of the recurrence is exercised on every diagonal; a pattern
// symbol is sometimes negative (a probe character outside the
// reference alphabet).
func osaPair(rng *rand.Rand) (pattern, text []int32, alphabet int) {
	alphabet = 1 + rng.Intn(300)
	sym := func() int32 { return int32(rng.Intn(alphabet)) }
	pattern = make([]int32, rng.Intn(71))
	for i := range pattern {
		pattern[i] = sym()
		if rng.Intn(16) == 0 {
			pattern[i] = -1
		}
	}
	if rng.Intn(2) == 0 {
		text = make([]int32, rng.Intn(71))
		for i := range text {
			text[i] = sym()
		}
		return pattern, text, alphabet
	}
	for _, c := range pattern {
		if c < 0 {
			c = sym()
		}
		text = append(text, c)
	}
	for i := 0; i+1 < len(text); i++ {
		if rng.Intn(3) == 0 {
			text[i], text[i+1] = text[i+1], text[i]
			i++
		}
	}
	for k := rng.Intn(4); k > 0 && len(text) > 0; k-- {
		i := rng.Intn(len(text))
		switch rng.Intn(3) {
		case 0:
			text[i] = sym()
		case 1:
			text = append(text[:i], text[i+1:]...)
		default:
			text = append(text[:i+1], text[i:]...)
		}
	}
	return pattern, text[:min(len(text), 70)], alphabet
}

// checkOSA holds Pattern to the dynamic program on one pair, through a
// Pattern reused across compilations.
func checkOSA(t *testing.T, p *Pattern, pattern, text []int32, alphabet int) {
	t.Helper()
	var rows Rows
	p.Compile(pattern, alphabet)
	if got, want := p.Distance(text), DistanceBuf(pattern, text, &rows); got != want {
		t.Fatalf("alphabet %d: Pattern(%v).Distance(%v) = %d, dynamic program %d", alphabet, pattern, text, got, want)
	}
	if got, want := p.Normalized(text), NormalizedBuf(pattern, text, &rows); got != want {
		t.Fatalf("alphabet %d: Pattern(%v).Normalized(%v) = %v, dynamic program %v", alphabet, pattern, text, got, want)
	}
}

// TestOSABitsEqualsDP is the bit-parallel kernel's oracle test: on
// 20 000 seeded pairs over alphabets of 1..300 symbols and lengths
// 0..70 — past the 64-symbol word, so the fallback runs too — Pattern's
// distance and normalized distance equal the dynamic program's.
func TestOSABitsEqualsDP(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var p Pattern
	for range 20000 {
		pattern, text, alphabet := osaPair(rng)
		checkOSA(t, &p, pattern, text, alphabet)
	}
}

// FuzzOSA holds Pattern to the dynamic program on fuzzed sequences: the
// first byte picks the alphabet size, the second the pattern length,
// and every further byte is one symbol (pattern, then text).
func FuzzOSA(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 2, 1, 1, 0, 2, 1})
	f.Add([]byte{255, 2, 7, 9, 9, 7})
	f.Add(append([]byte{200, 66}, make([]byte, 140)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		alphabet := 1 + int(data[0])
		data = data[1:]
		n := min(int(data[0]), len(data)-1, 70)
		data = data[1:]
		sym := func(b byte) int32 {
			if int(b) >= alphabet {
				return -1
			}
			return int32(b)
		}
		pattern := make([]int32, n)
		for i := range pattern {
			pattern[i] = sym(data[i])
		}
		var text []int32
		for _, b := range data[n:min(len(data), n+70)] {
			text = append(text, int32(int(b)%alphabet))
		}
		var p Pattern
		checkOSA(t, &p, pattern, text, alphabet)
	})
}

// TestPatternAllocFree pins the kernel's allocation contract: once a
// Pattern's buffers have grown, compiling a probe and scoring it
// allocates nothing, on both sides of the 64-symbol word.
func TestPatternAllocFree(t *testing.T) {
	short := []int32{1, 2, 3, 2, 1, 0, 4}
	long := make([]int32, 80)
	for i := range long {
		long[i] = int32(i % 7)
	}
	var p Pattern
	for _, probe := range [][]int32{short, long} {
		p.Compile(probe, 8)
		p.Distance(long)
		if n := testing.AllocsPerRun(50, func() {
			p.Compile(probe, 8)
			p.Normalized(short)
			p.Normalized(long)
		}); n != 0 {
			t.Errorf("probe of %d symbols: %v allocs per compile and score, want 0", len(probe), n)
		}
	}
}
