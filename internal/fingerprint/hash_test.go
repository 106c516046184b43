package fingerprint

import (
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/features"
)

func TestHashCanonical(t *testing.T) {
	a := FromVectors([]features.Vector{vec(1), vec(2), vec(3)})
	b := FromVectors([]features.Vector{vec(1), vec(1), vec(2), vec(3)}) // dup collapses
	if a.Hash() != b.Hash() {
		t.Errorf("equal fingerprints hash differently: %x vs %x", a.Hash(), b.Hash())
	}
	c := FromVectors([]features.Vector{vec(1), vec(2), vec(4)})
	if a.Hash() == c.Hash() {
		t.Errorf("distinct fingerprints collide: %x", a.Hash())
	}
	// Order matters: F is a sequence, not a set.
	d := FromVectors([]features.Vector{vec(2), vec(1), vec(3)})
	if a.Hash() == d.Hash() {
		t.Error("reordered fingerprint hashes identically")
	}
}

func TestHashNegativeComponents(t *testing.T) {
	var v features.Vector
	v[0] = -7
	v[22] = -1 << 20
	a := FromVectors([]features.Vector{v})
	if a.Hash() == (&Fingerprint{}).Hash() {
		t.Error("negative-component fingerprint hashes like empty")
	}
}

func TestPackedReportRoundTrip(t *testing.T) {
	var v1, v2 features.Vector
	for i := range v1 {
		v1[i] = int32(i * 13)
	}
	v2[0] = -1
	v2[5] = 1 << 30
	v2[22] = -1 << 30
	orig := FromVectors([]features.Vector{v1, v2, v1})

	r, err := MarshalReportPacked("02:00:00:00:00:aa", orig)
	if err != nil {
		t.Fatal(err)
	}
	if r.Packed == "" || len(r.Vectors) != 0 {
		t.Fatalf("packed report not packed: %+v", r)
	}
	mac, got, err := UnmarshalReportStruct(r)
	if err != nil {
		t.Fatal(err)
	}
	if mac != "02:00:00:00:00:aa" {
		t.Errorf("mac = %q", mac)
	}
	if !got.Equal(orig) {
		t.Errorf("round trip mutated fingerprint: %v vs %v", got, orig)
	}
	if got.Hash() != orig.Hash() {
		t.Error("round trip changed canonical hash")
	}
}

func TestPackedSmallerThanVectors(t *testing.T) {
	var vs []features.Vector
	for i := 0; i < 20; i++ {
		var v features.Vector
		for j := range v {
			v[j] = int32((i * j) % 64)
		}
		vs = append(vs, v)
	}
	f := FromVectors(vs)
	packed, err := MarshalReportPacked("02:00:00:00:00:01", f)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := MarshalReportStruct("02:00:00:00:00:01", f)
	if err != nil {
		t.Fatal(err)
	}
	plainSize := 0
	for _, row := range plain.Vectors {
		plainSize += len(row) * 2 // at least a digit and a comma each
	}
	if len(packed.Packed) >= plainSize {
		t.Errorf("packed form (%d bytes) not smaller than a lower bound of the JSON matrix (%d bytes)",
			len(packed.Packed), plainSize)
	}
}

func TestPackedReportMalformed(t *testing.T) {
	cases := map[string]string{
		"bad base64":   "!!!not-base64!!!",
		"wrong stride": "AQI=", // two varints, not a multiple of 23
	}
	for name, packed := range cases {
		if _, _, err := UnmarshalReportStruct(Report{MAC: "x", Packed: packed}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Truncated varint: a lone continuation byte.
	if _, _, err := UnmarshalReportStruct(Report{MAC: "x", Packed: "gA=="}); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated varint: err = %v", err)
	}
}

func TestMarshalReportPackedNil(t *testing.T) {
	if _, err := MarshalReportPacked("x", nil); err == nil {
		t.Error("nil fingerprint accepted")
	}
}

// TestHashGolden pins Hash's output on fixed fingerprints: the hash keys
// the verdict cache and seeds stage two's reference sampling, so any
// change to the byte stream it folds changes verdict derivations.
func TestHashGolden(t *testing.T) {
	var ramp, neg features.Vector
	for i := range ramp {
		ramp[i] = int32(i * 13)
	}
	neg[0], neg[5], neg[22] = -7, 1<<30, -1<<31
	rng := rand.New(rand.NewSource(11))
	long := make([]features.Vector, 40)
	for k := range long {
		for i := range long[k] {
			long[k][i] = rng.Int31() - 1<<30
		}
	}
	cases := []struct {
		name string
		fp   *Fingerprint
		want uint64
	}{
		{"empty", &Fingerprint{}, 0xcbf29ce484222325},
		{"ramp", FromVectors([]features.Vector{ramp}), 0x6784de4881ddbc5d},
		{"negative", FromVectors([]features.Vector{neg, ramp, neg}), 0xebc1ee9eb58d3601},
		{"long", FromVectors(long), 0xbc1d750764b3219b},
	}
	for _, c := range cases {
		if got := c.fp.Hash(); got != c.want {
			t.Errorf("%s: Hash = %#x, want %#x", c.name, got, c.want)
		}
		if n := testing.AllocsPerRun(10, func() { c.fp.Hash() }); n != 0 {
			t.Errorf("%s: %v allocs per Hash, want 0", c.name, n)
		}
	}
}

// TestHashStringMatchesFNV holds the inlined HashString to hash/fnv's
// FNV-1a.
func TestHashStringMatchesFNV(t *testing.T) {
	for _, s := range []string{"", "a", "02:00:00:00:00:aa", "127.0.0.1:7000", "\xff\x00\x80"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := HashString(s), h.Sum64(); got != want {
			t.Errorf("HashString(%q) = %#x, want %#x", s, got, want)
		}
	}
}

// BenchmarkHash times Hash on a fingerprint of 40 packet vectors.
func BenchmarkHash(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	vs := make([]features.Vector, 40)
	for k := range vs {
		for i := range vs[k] {
			vs[k][i] = rng.Int31n(1500)
		}
	}
	fp := FromVectors(vs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fp.Hash()
	}
}
