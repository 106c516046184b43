package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/ml"
)

// fusedFixture trains a bank under a mutated config plus a probe set
// (fixed-size form) spanning every type and out-of-distribution noise.
func fusedFixture(t *testing.T, mutate func(*Config)) (*Bank, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	train := map[string][]*fingerprint.Fingerprint{
		"camA":  synthType(100, 12, rng),
		"plugB": synthType(200, 12, rng),
		"hubC":  synthType(300, 12, rng),
		"twin1": synthType(400, 12, rng),
		"twin2": synthType(400, 12, rng),
	}
	cfg := smallConfig()
	mutate(&cfg)
	b, err := Train(cfg, train)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	var fixed [][]float64
	for _, seed := range []int64{100, 200, 300, 400, 999} {
		for _, fp := range synthType(seed, 3, rng) {
			fixed = append(fixed, fp.Fixed())
		}
	}
	return b, fixed
}

// TestFusedClassifyMatchesOracle is the bank-level bit-equality
// property: across layout precision, leaf caps and accept thresholds,
// the fused stage one (single and batch, any worker count) must return
// exactly the per-forest oracle's accept lists.
func TestFusedClassifyMatchesOracle(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(*Config) {}},
		{"quantized", func(c *Config) { c.Forest.Flat.Quantize = true }},
		{"leafcap", func(c *Config) { c.Forest.Flat.MaxLeaves = 8 }},
		{"loose", func(c *Config) {
			c.Forest.Flat = ml.FlatConfig{Quantize: true, MaxLeaves: 8}
			c.AcceptThreshold = 0.3
		}},
		{"strict", func(c *Config) { c.AcceptThreshold = 0.9 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			b, fixed := fusedFixture(t, v.mutate)
			sawAccept := false
			for i, x := range fixed {
				got := b.Classify(x)
				want := b.ClassifyOracle(x)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("probe %d: fused %v, oracle %v", i, got, want)
				}
				if len(want) > 0 {
					sawAccept = true
				}
			}
			if !sawAccept && v.name != "strict" {
				t.Fatal("no probe was accepted by any classifier; equivalence test is vacuous")
			}
			wantBatch := b.ClassifyBatchOracle(fixed, 0)
			for _, workers := range []int{0, 1, 3, 8} {
				if got := b.ClassifyBatchFixed(fixed, workers); !reflect.DeepEqual(got, wantBatch) {
					t.Errorf("workers=%d: batch fused %v, oracle %v", workers, got, wantBatch)
				}
			}
		})
	}
}

// TestClassifyVotesMatchesOracle cross-checks the zero-allocation
// kernel's accept bitmask against the oracle's name lists, cell by cell.
func TestClassifyVotesMatchesOracle(t *testing.T) {
	b, fixed := fusedFixture(t, func(c *Config) { c.AcceptThreshold = 0.3 })
	var m ml.SampleMatrix
	m.Reset(len(fixed), fingerprint.FixedPackets*features.NumFeatures)
	for i, x := range fixed {
		m.SetRow(i, x)
	}
	var votes []int32
	var accepts AcceptMask
	F := b.ClassifyVotes(&m, &votes, &accepts, 0)
	names := b.Types()
	if F != len(names) {
		t.Fatalf("ClassifyVotes returned F=%d, bank has %d types", F, len(names))
	}
	oracle := b.ClassifyBatchOracle(fixed, 0)
	for s := range fixed {
		want := map[string]bool{}
		for _, name := range oracle[s] {
			want[name] = true
		}
		for f, name := range names {
			if got := accepts.Bit(s*F + f); got != want[name] {
				t.Errorf("sample %d type %s: accept bit %v, oracle %v", s, name, got, want[name])
			}
		}
	}
}

// TestClassifyVotesZeroAlloc pins the acceptance criterion: with reused
// buffers, the fused kernel allocates nothing per pass.
func TestClassifyVotesZeroAlloc(t *testing.T) {
	b, fixed := fusedFixture(t, func(c *Config) { c.Forest.Flat.Quantize = true })
	var m ml.SampleMatrix
	m.Reset(len(fixed), fingerprint.FixedPackets*features.NumFeatures)
	for i, x := range fixed {
		m.SetRow(i, x)
	}
	var votes []int32
	var accepts AcceptMask
	b.ClassifyVotes(&m, &votes, &accepts, 0) // sizes buffers, warms the pool
	if n := testing.AllocsPerRun(20, func() { b.ClassifyVotes(&m, &votes, &accepts, 0) }); n != 0 {
		t.Errorf("%v allocs per ClassifyVotes, want 0", n)
	}
}

// TestFusedSurvivesRemoveAndRestore exercises the index's rebuild
// paths: after Remove (in-place drop) and after Snapshot/Restore
// (parse-then-swap), fused verdicts still match the oracle and the
// restored bank matches the source.
func TestFusedSurvivesRemoveAndRestore(t *testing.T) {
	b, fixed := fusedFixture(t, func(c *Config) { c.AcceptThreshold = 0.3 })
	if err := b.Remove("hubC"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	for i, x := range fixed {
		if got, want := b.Classify(x), b.ClassifyOracle(x); !reflect.DeepEqual(got, want) {
			t.Fatalf("after Remove, probe %d: fused %v, oracle %v", i, got, want)
		}
	}

	snap, err := b.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, err := RestoreBank(b.cfg, snap)
	if err != nil {
		t.Fatalf("RestoreBank: %v", err)
	}
	for i, x := range fixed {
		if got, want := restored.Classify(x), restored.ClassifyOracle(x); !reflect.DeepEqual(got, want) {
			t.Fatalf("after Restore, probe %d: fused %v, oracle %v", i, got, want)
		}
		if got, want := restored.Classify(x), b.Classify(x); !reflect.DeepEqual(got, want) {
			t.Fatalf("probe %d: restored %v, source %v", i, got, want)
		}
	}
}

// TestClassifyStatsCounts verifies the classify-stage counters advance
// with work: fingerprints by the rows classified, nanos monotonically.
func TestClassifyStatsCounts(t *testing.T) {
	b, fixed := fusedFixture(t, func(*Config) {})
	before := b.ClassifyStats()
	b.ClassifyBatchFixed(fixed, 0)
	after := b.ClassifyStats()
	if got := after.Fingerprints - before.Fingerprints; got != uint64(len(fixed)) {
		t.Errorf("Fingerprints advanced by %d, want %d", got, len(fixed))
	}
	if after.Nanos < before.Nanos {
		t.Errorf("Nanos went backwards: %d -> %d", before.Nanos, after.Nanos)
	}
}

// TestEnrollRacesFusedClassify drives the fused entry points — the
// pooled-scratch batch path and the zero-alloc kernel — from reader
// goroutines while Enroll grows (and so incrementally re-fuses) the
// index, under the race detector. The kernel's returned F must always
// be consistent with a bank state the reader could have observed.
func TestEnrollRacesFusedClassify(t *testing.T) {
	b, fixed := fusedFixture(t, func(c *Config) { c.AcceptThreshold = 0.3 })
	fps := make([]*fingerprint.Fingerprint, 0, 8)
	rng := rand.New(rand.NewSource(91))
	for _, seed := range []int64{100, 300, 999} {
		fps = append(fps, synthType(seed, 2, rng)...)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var m ml.SampleMatrix
			m.Reset(len(fixed), fingerprint.FixedPackets*features.NumFeatures)
			for i, x := range fixed {
				m.SetRow(i, x)
			}
			var votes []int32
			var accepts AcceptMask
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (i + r) % 3 {
				case 0:
					F := b.ClassifyVotes(&m, &votes, &accepts, 2)
					if F < 5 || F > 8 {
						t.Errorf("ClassifyVotes returned F=%d outside [5,8]", F)
					}
				case 1:
					if got := b.ClassifyBatch(fps, 2); len(got) != len(fps) {
						t.Errorf("ClassifyBatch returned %d rows for %d fingerprints", len(got), len(fps))
					}
				case 2:
					b.Classify(fixed[i%len(fixed)])
				}
			}
		}(r)
	}

	for i := 0; i < 3; i++ {
		if err := b.Enroll(fmt.Sprintf("late%d", i), synthType(int64(600+i), 10, rng)); err != nil {
			t.Errorf("Enroll: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	// The settled bank must still match the oracle over every probe.
	for i, x := range fixed {
		if got, want := b.Classify(x), b.ClassifyOracle(x); !reflect.DeepEqual(got, want) {
			t.Fatalf("after racing enrolments, probe %d: fused %v, oracle %v", i, got, want)
		}
	}
}
