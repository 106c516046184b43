package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"repro/internal/devices"
	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/ml"
)

// goldenSnapshotSHA256 is the digest of the bank TestTrainSnapshotGolden
// builds. It pins every trained tree to the bit: a change to the
// inducer, the forest loop, the seed derivation or the negative
// sampling that moves any threshold, probability or node changes it.
const goldenSnapshotSHA256 = "24b2f3abfde2074df08c2668bde67b4de4a262349de52592ed034d4045476768"

// TestTrainSnapshotGolden trains a bank on the synthesized catalog with
// one type held out, enrolls that type incrementally, and checks the
// snapshot digest against the pinned value.
func TestTrainSnapshotGolden(t *testing.T) {
	ds, err := devices.GenerateDataset(devices.DefaultEnv(), 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	const heldOut = "iKettle2"
	train := make(map[string][]*fingerprint.Fingerprint, len(ds)-1)
	for name, prints := range ds {
		if name != heldOut {
			train[name] = prints
		}
	}
	cfg := Default()
	cfg.Forest = ml.ForestConfig{Trees: 100}
	cfg.Seed = 1
	bank, err := Train(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	if err := bank.Enroll(heldOut, ds[heldOut]); err != nil {
		t.Fatal(err)
	}
	snap, err := bank.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != goldenSnapshotSHA256 {
		t.Fatalf("snapshot sha256 %s, want %s: training is no longer bit-identical", got, goldenSnapshotSHA256)
	}
}

// goldenVotesSHA256 pins the stage-one votes matrix TestClassifyVotesGolden
// computes, once per serving layout: a kernel change that moves any
// vote count on any probe, under either precision, changes it.
var goldenVotesSHA256 = map[bool]string{
	false: "837d30ada5e5261a03ba83d337ae3c17ab7d9980532b7c05ef1220b691b80fe6",
	true:  "837d30ada5e5261a03ba83d337ae3c17ab7d9980532b7c05ef1220b691b80fe6",
}

// catalogBank trains the seeded 27-type bank of the stage-one goldens
// and benchmarks (eight catalog runs per type, 100 trees) and returns it
// with its config and probes: the 54 held-out catalog fingerprints, then
// jittered rebuilds of them (+0..4 on every packet's Size) up to n.
func catalogBank(tb testing.TB, n int) (*Bank, Config, []*fingerprint.Fingerprint) {
	tb.Helper()
	ds, err := devices.GenerateDataset(devices.DefaultEnv(), 1, 10)
	if err != nil {
		tb.Fatal(err)
	}
	train := make(map[string][]*fingerprint.Fingerprint, len(ds))
	var probes []*fingerprint.Fingerprint
	for _, name := range devices.Names() {
		train[name] = ds[name][:8]
		probes = append(probes, ds[name][8:]...)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; len(probes) < n; i++ {
		vs := probes[i%54].Vectors()
		for k := range vs {
			vs[k][features.Size] += int32(rng.Intn(5))
		}
		probes = append(probes, fingerprint.FromVectors(vs))
	}
	cfg := Default()
	cfg.Forest = ml.ForestConfig{Trees: 100}
	cfg.Seed = 1
	bank, err := Train(cfg, train)
	if err != nil {
		tb.Fatal(err)
	}
	return bank, cfg, probes
}

// fillFixed sizes m to fps and fills its rows with their F′ form.
func fillFixed(m *ml.SampleMatrix, fps []*fingerprint.Fingerprint) {
	m.Reset(len(fps), fingerprint.FixedLen)
	for i, fp := range fps {
		fp.FixedNInto(m.Row(i), fingerprint.FixedPackets)
	}
}

// TestClassifyVotesGolden classifies seeded probes — the held-out
// catalog fingerprints and jittered rebuilds of them — through the
// seeded 27-type bank, exact and quantized, and checks the sha256 of the
// votes matrix against the pinned value.
func TestClassifyVotesGolden(t *testing.T) {
	bank, cfg, probes := catalogBank(t, 354)
	snap, err := bank.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var m ml.SampleMatrix
	fillFixed(&m, probes)
	for _, quantize := range []bool{false, true} {
		b := bank
		if quantize {
			qcfg := cfg
			qcfg.Forest.Flat.Quantize = true
			if b, err = RestoreBank(qcfg, snap); err != nil {
				t.Fatal(err)
			}
		}
		var votes []int32
		var accepts AcceptMask
		if F := b.ClassifyVotes(&m, &votes, &accepts, 2); F != 27 {
			t.Fatalf("quantize=%v: %d forests, want 27", quantize, F)
		}
		h := sha256.New()
		var buf [4]byte
		for _, v := range votes {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenVotesSHA256[quantize] {
			t.Errorf("quantize=%v: votes sha256 %s, want %s: stage one is no longer bit-identical", quantize, got, goldenVotesSHA256[quantize])
		}
	}
}

// BenchmarkClassifyVotesMiss times stage one on a miss stream: 8192
// jittered fingerprints through the 27-type bank in batches of 1 and 32
// on two workers, each batch its own prefilled matrix, so branch
// history learned on one sample does not carry over to the next as it
// does on a few repeated probes.
func BenchmarkClassifyVotesMiss(b *testing.B) {
	bank, _, probes := catalogBank(b, 8192)
	for _, batch := range []int{1, 32} {
		ms := make([]ml.SampleMatrix, len(probes)/batch)
		for i := range ms {
			fillFixed(&ms[i], probes[i*batch:(i+1)*batch])
		}
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var votes []int32
			var accepts AcceptMask
			bank.ClassifyVotes(&ms[0], &votes, &accepts, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bank.ClassifyVotes(&ms[i%len(ms)], &votes, &accepts, 2)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch)/1e3, "µs/fp")
		})
	}
}

// goldenIdentifySHA256 pins every verdict TestIdentifyGolden computes:
// a change to stage one, to the reference draws or to the edit distance
// that moves any type, stage, accept list or score bit changes it.
const goldenIdentifySHA256 = "1079e548ff3863c766a48f67b4536d42396604a9d96625c0f7f15cb5f72ceb2d"

// hashResult writes r's type, stage, accept list and the bits of every
// score (in accept order) into h.
func hashResult(h hash.Hash, r Result) {
	var buf [8]byte
	write := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	h.Write([]byte(r.Type))
	write(uint64(r.Stage))
	write(uint64(len(r.Accepted)))
	for _, name := range r.Accepted {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	write(uint64(len(r.Scores)))
	for _, name := range r.Accepted {
		if s, ok := r.Scores[name]; ok {
			write(math.Float64bits(s))
		}
	}
}

// TestIdentifyGolden identifies seeded jittered probes end to end through
// the seeded 27-type bank and its Snapshot/Restore twin, batched on one
// and two workers, then scores probes by edit distance alone against a
// bank of 22 prints per type (so one verdict's reference draws run past
// the first 273 outputs of its generator), and checks the sha256 of
// every verdict against the pinned value.
func TestIdentifyGolden(t *testing.T) {
	bank, cfg, probes := catalogBank(t, 2048)
	snap, err := bank.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := RestoreBank(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	discriminated := 0
	for _, b := range []*Bank{bank, twin} {
		for _, workers := range []int{1, 2} {
			for _, r := range b.IdentifyBatch(probes, workers) {
				hashResult(h, r)
				if r.Stage == StageDiscrimination {
					discriminated++
				}
			}
		}
	}
	if discriminated == 0 {
		t.Fatal("no probe reached stage two")
	}

	ds, err := devices.GenerateDataset(devices.DefaultEnv(), 2, 24)
	if err != nil {
		t.Fatal(err)
	}
	train := make(map[string][]*fingerprint.Fingerprint, len(ds))
	var editProbes []*fingerprint.Fingerprint
	for _, name := range devices.Names() {
		train[name] = ds[name][:22]
		editProbes = append(editProbes, ds[name][22:]...)
	}
	ecfg := Default()
	ecfg.Forest = ml.ForestConfig{Trees: 5}
	ecfg.Seed = -7
	wide, err := Train(ecfg, train)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range editProbes {
		hashResult(h, wide.IdentifyEditOnly(p))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenIdentifySHA256 {
		t.Fatalf("verdicts sha256 %s, want %s: identification is no longer bit-identical", got, goldenIdentifySHA256)
	}
}
