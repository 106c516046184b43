package fingerprint

import (
	"math/rand"
	"testing"

	"repro/internal/features"
)

// similarMatrix builds an F matrix whose rows drift slowly from a
// common base — the shape real capture windows have, where consecutive
// packets repeat most feature values.
func similarMatrix(rng *rand.Rand, rows int) *Fingerprint {
	var base features.Vector
	for j := range base {
		base[j] = int32(rng.Intn(1500))
	}
	vs := make([]features.Vector, rows)
	for i := range vs {
		vs[i] = base
		if i > 0 && rng.Intn(3) == 0 {
			vs[i][rng.Intn(features.NumFeatures)] += int32(rng.Intn(5)) - 2
		}
	}
	return FromVectors(vs)
}

// TestDeltaRoundTripRandomMatrices: the delta codec is lossless on
// arbitrary matrices, including hostile full-range values.
func TestDeltaRoundTripRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		fp := randomMatrix(rng, rng.Intn(40))
		packed, err := PackDelta(fp)
		if err != nil {
			t.Fatalf("matrix %d: PackDelta: %v", i, err)
		}
		got, err := UnpackDelta(packed)
		if err != nil {
			t.Fatalf("matrix %d: UnpackDelta: %v", i, err)
		}
		if !got.Equal(fp) {
			t.Fatalf("matrix %d (%d rows): delta round-trip mismatch", i, fp.Len())
		}
	}
}

// TestDeltaShrinksSimilarRows: on realistic capture windows — rows that
// mostly repeat their predecessor — the per-column deltas zigzag-encode
// to single bytes and the wire form must come out smaller than Pack's.
func TestDeltaShrinksSimilarRows(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var plain, delta int
	for i := 0; i < 50; i++ {
		fp := similarMatrix(rng, 12+rng.Intn(12))
		p, err := Pack(fp)
		if err != nil {
			t.Fatal(err)
		}
		d, err := PackDelta(fp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnpackDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(fp) {
			t.Fatalf("matrix %d: delta round-trip mismatch", i)
		}
		plain += len(p)
		delta += len(d)
	}
	if delta >= plain {
		t.Fatalf("delta packing totals %d bytes vs %d plain on similar-row matrices: deltas must shrink the wire form", delta, plain)
	}
	t.Logf("similar-row wire bytes: plain %d, delta %d (%.1f%%)", plain, delta, 100*float64(delta)/float64(plain))
}

// TestUnpackDeltaRejectsCorrupt: hostile inputs error, never panic.
func TestUnpackDeltaRejectsCorrupt(t *testing.T) {
	valid, err := PackDelta(randomMatrix(rand.New(rand.NewSource(33)), 6))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"bad base64":       "!!!not-base64!!!",
		"truncated base64": valid[:len(valid)-2] + "=",
	}
	for name, in := range cases {
		if _, err := UnpackDelta(in); err == nil {
			t.Errorf("%s: UnpackDelta accepted corrupt input %q", name, in)
		}
	}
}

// FuzzUnpackDelta holds the delta decoder to the fuzz contract:
// arbitrary input is rejected or decodes into a matrix that survives a
// PackDelta/UnpackDelta round trip; nothing panics.
func FuzzUnpackDelta(f *testing.F) {
	rng := rand.New(rand.NewSource(34))
	for _, rows := range []int{0, 1, 5, 30} {
		packed, err := PackDelta(similarMatrix(rng, rows))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(packed)
		if len(packed) > 4 {
			f.Add(packed[:len(packed)/2])
		}
	}
	f.Add("")
	f.Add("not base64 at all")
	f.Fuzz(func(t *testing.T, packed string) {
		fp, err := UnpackDelta(packed)
		if err != nil {
			return
		}
		re, err := PackDelta(fp)
		if err != nil {
			t.Fatalf("PackDelta of just-decoded matrix failed: %v", err)
		}
		again, err := UnpackDelta(re)
		if err != nil {
			t.Fatalf("re-UnpackDelta failed: %v", err)
		}
		if !again.Equal(fp) {
			t.Fatal("PackDelta/UnpackDelta not a fixpoint on accepted input")
		}
	})
}

// FuzzDecodeBinary covers the raw binary matrix codec the snapshot path
// uses: reject-or-round-trip, never panic.
func FuzzDecodeBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(35))
	f.Add(AppendBinary(nil, randomMatrix(rng, 4)))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fp, err := DecodeBinary(data)
		if cerr := CheckBinary(data); (cerr == nil) != (err == nil) {
			t.Fatalf("CheckBinary says %v, DecodeBinary says %v", cerr, err)
		}
		if err != nil {
			return
		}
		re := AppendBinary(nil, fp)
		again, err := DecodeBinary(re)
		if err != nil {
			t.Fatalf("re-DecodeBinary failed: %v", err)
		}
		if !again.Equal(fp) {
			t.Fatal("AppendBinary/DecodeBinary not a fixpoint")
		}
	})
}

// TestDecodeBinaryAllocs bounds the cache-miss decode: a 13-packet
// print decodes into one vector slice plus the Fingerprint, duplicate
// columns dropped in place, and checking it allocates nothing.
func TestDecodeBinaryAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	fp := similarMatrix(rng, 13)
	vs := fp.Vectors()
	vs = append(vs[:4], append([]features.Vector{vs[3]}, vs[4:]...)...) // one repeated column
	data := AppendBinary(nil, &Fingerprint{vectors: vs})
	got, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(fp) {
		t.Fatal("decode did not drop the repeated column")
	}
	if n := testing.AllocsPerRun(50, func() { DecodeBinary(data) }); n > 2 {
		t.Errorf("DecodeBinary: %.0f allocations, want at most 2", n)
	}
	if n := testing.AllocsPerRun(50, func() { CheckBinary(data) }); n != 0 {
		t.Errorf("CheckBinary: %.0f allocations, want 0", n)
	}
}
