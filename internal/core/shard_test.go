package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fingerprint"
)

// shardTrainingSet builds a deterministic multi-type training set plus
// held-out probes.
func shardTrainingSet(t *testing.T, types, perType int) (map[string][]*fingerprint.Fingerprint, []*fingerprint.Fingerprint) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	train := make(map[string][]*fingerprint.Fingerprint, types)
	var probes []*fingerprint.Fingerprint
	for i := 0; i < types; i++ {
		name := fmt.Sprintf("type-%02d", i)
		all := synthType(int64(1000+i*100), perType+2, rng)
		train[name] = all[:perType]
		probes = append(probes, all[perType:]...)
	}
	return train, probes
}

// TestShardedSingleShardMatchesBank: a one-shard ShardedBank must be
// bit-identical to a plain Bank — same accepts, same winner, same
// scores, same stage — on every probe, batched or not.
func TestShardedSingleShardMatchesBank(t *testing.T) {
	train, probes := shardTrainingSet(t, 5, 10)
	bank, err := Train(smallConfig(), train)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := TrainSharded(smallConfig(), 1, train)
	if err != nil {
		t.Fatal(err)
	}
	want := bank.IdentifyBatch(probes, 4)
	got := sharded.IdentifyBatch(probes, 4)
	for i := range probes {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("probe %d diverged:\n bank:    %+v\n sharded: %+v", i, want[i], got[i])
		}
		one := sharded.Identify(probes[i])
		if !reflect.DeepEqual(one, got[i]) {
			t.Errorf("probe %d: Identify diverged from IdentifyBatch:\n %+v\n %+v", i, one, got[i])
		}
	}
}

// TestShardedPartitionAndVersions: types spread deterministically across
// shards, the version vector tracks per-shard enrolment counts, and the
// global order is the sorted training order.
func TestShardedPartitionAndVersions(t *testing.T) {
	train, _ := shardTrainingSet(t, 7, 8)
	sb, err := TrainSharded(smallConfig(), 3, train)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Shards() != 3 || sb.Len() != 7 {
		t.Fatalf("shards=%d len=%d", sb.Shards(), sb.Len())
	}
	// 7 types round-robin over 3 shards: loads 3/2/2.
	if got := sb.Versions(); !reflect.DeepEqual(got, []uint64{3, 2, 2}) {
		t.Fatalf("version vector = %v, want [3 2 2]", got)
	}
	if sb.Version() != 7 {
		t.Fatalf("total version = %d", sb.Version())
	}
	for i, name := range sb.Types() {
		s, ok := sb.ShardOf(name)
		if !ok || s != i%3 {
			t.Errorf("type %s: shard %d ok=%v, want %d", name, s, ok, i%3)
		}
	}
	// Rebuilding yields the identical partition (determinism).
	sb2, err := TrainSharded(smallConfig(), 3, train)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sb.Types(), sb2.Types()) {
		t.Errorf("type order differs across rebuilds")
	}
}

// TestShardedIdentifyAcrossShards: probes of every type identify
// correctly even though their classifiers live on different shards.
func TestShardedIdentifyAcrossShards(t *testing.T) {
	train, _ := shardTrainingSet(t, 6, 12)
	sb, err := TrainSharded(smallConfig(), 3, train)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	correct := 0
	total := 0
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("type-%02d", i)
		for _, fp := range synthType(int64(1000+i*100), 4, rng) {
			res := sb.Identify(fp)
			total++
			if res.Known && res.Type == name {
				correct++
			}
		}
	}
	// Synthetic types are well-separated; cross-shard identification
	// must not wreck accuracy.
	if correct*10 < total*8 {
		t.Errorf("cross-shard accuracy %d/%d below 80%%", correct, total)
	}
}

// TestShardedEnrollRoutesLeastLoadedAndBumpsOneVersion: Enroll lands on
// the lightest shard and bumps exactly that shard's version.
func TestShardedEnrollRoutesLeastLoadedAndBumpsOneVersion(t *testing.T) {
	train, _ := shardTrainingSet(t, 5, 8)
	sb, err := TrainSharded(smallConfig(), 3, train)
	if err != nil {
		t.Fatal(err)
	}
	before := sb.Versions() // loads 2/2/1 -> shard 2 is lightest
	rng := rand.New(rand.NewSource(47))
	prints := synthType(7777, 8, rng)
	if err := sb.Enroll("late-device", prints); err != nil {
		t.Fatal(err)
	}
	s, ok := sb.ShardOf("late-device")
	if !ok || s != 2 {
		t.Fatalf("enrolled on shard %d (ok=%v), want least-loaded shard 2", s, ok)
	}
	after := sb.Versions()
	for i := range after {
		want := before[i]
		if i == 2 {
			want++
		}
		if after[i] != want {
			t.Errorf("shard %d version %d -> %d, want %d", i, before[i], after[i], want)
		}
	}
	if types := sb.Types(); types[len(types)-1] != "late-device" {
		t.Errorf("global order does not end with the new type: %v", types)
	}
	if err := sb.Enroll("late-device", prints); err == nil {
		t.Error("duplicate enrolment accepted")
	}
}

// TestShardedEnrollRacesIdentifyBatch: concurrent enrolments and batch
// identifications must be data-race free and every identification must
// see a consistent bank (run under -race).
func TestShardedEnrollRacesIdentifyBatch(t *testing.T) {
	train, probes := shardTrainingSet(t, 4, 8)
	cfg := smallConfig()
	cfg.Forest.Trees = 10
	sb, err := TrainSharded(cfg, 2, train)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	extra := make([][]*fingerprint.Fingerprint, 4)
	for i := range extra {
		extra[i] = synthType(int64(9000+i*111), 6, rng)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, prints := range extra {
			if err := sb.Enroll(fmt.Sprintf("race-%d", i), prints); err != nil {
				t.Errorf("Enroll race-%d: %v", i, err)
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				for _, res := range sb.IdentifyBatch(probes, 2) {
					if res.Known && res.Type == "" {
						t.Error("known result with empty type")
					}
				}
			}
		}()
	}
	wg.Wait()
	if sb.Len() != 8 {
		t.Errorf("len = %d after 4 enrolments over 4 types", sb.Len())
	}
}

// TestShardedBatchMatchesSequential: batched identification over a
// multi-shard bank equals one-at-a-time Identify.
func TestShardedBatchMatchesSequential(t *testing.T) {
	train, probes := shardTrainingSet(t, 6, 10)
	sb, err := TrainSharded(smallConfig(), 3, train)
	if err != nil {
		t.Fatal(err)
	}
	batch := sb.IdentifyBatch(probes, 4)
	for i, fp := range probes {
		if one := sb.Identify(fp); !reflect.DeepEqual(one, batch[i]) {
			t.Errorf("probe %d: sequential %+v != batch %+v", i, one, batch[i])
		}
	}
}

// TestShardedBankFromReassemblesPartition: a logical bank assembled
// from a trained bank's own shards (through the Shard interface, the
// way a mixed local/remote deployment assembles one) must reproduce the
// original global enrolment order and bit-equal verdicts.
func TestShardedBankFromReassemblesPartition(t *testing.T) {
	train, probes := shardTrainingSet(t, 7, 8)
	sb, err := TrainSharded(smallConfig(), 3, train)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]Shard, sb.Shards())
	for s := range shards {
		shards[s] = sb.Shard(s)
	}
	re, err := NewShardedBankFrom(smallConfig(), shards)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.Types(), sb.Types(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reassembled order %v, want %v", got, want)
	}
	for name := range train {
		gs, gok := re.ShardOf(name)
		ws, wok := sb.ShardOf(name)
		if gs != ws || gok != wok {
			t.Fatalf("ShardOf(%q) = (%d,%v), want (%d,%v)", name, gs, gok, ws, wok)
		}
	}
	if got, want := re.IdentifyBatch(probes, 4), sb.IdentifyBatch(probes, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("reassembled bank verdicts diverged")
	}
	if got, want := re.Versions(), sb.Versions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("versions %v, want %v", got, want)
	}

	// Duplicate ownership is rejected.
	if _, err := NewShardedBankFrom(smallConfig(), []Shard{sb.Shard(0), sb.Shard(0)}); err == nil {
		t.Fatal("bank assembled from overlapping shards")
	}
	if _, err := NewShardedBankFrom(smallConfig(), nil); err == nil {
		t.Fatal("bank assembled from zero shards")
	}
}

// opaqueShard wraps a Bank exposing only the Shard interface — the
// shape of a remote shard, which cannot count edit-distance
// computations locally.
type opaqueShard struct{ b *Bank }

func (o opaqueShard) ClassifyBatch(fps []*fingerprint.Fingerprint, workers int) [][]string {
	return o.b.ClassifyBatch(fps, workers)
}
func (o opaqueShard) Discriminate(f *fingerprint.Fingerprint, candidates []string) (string, map[string]float64) {
	return o.b.Discriminate(f, candidates)
}
func (o opaqueShard) Enroll(name string, prints []*fingerprint.Fingerprint) error {
	return o.b.Enroll(name, prints)
}
func (o opaqueShard) Remove(name string) error { return o.b.Remove(name) }
func (o opaqueShard) Version() uint64          { return o.b.Version() }
func (o opaqueShard) Types() []string          { return o.b.Types() }

// TestShardedDistanceComputationsSkipsOpaqueShards: shards that cannot
// report edit-distance counts (remote ones) contribute zero, the rest
// keep counting.
func TestShardedDistanceComputationsSkipsOpaqueShards(t *testing.T) {
	train, _ := shardTrainingSet(t, 4, 8)
	sb, err := TrainSharded(smallConfig(), 2, train)
	if err != nil {
		t.Fatal(err)
	}
	all := sb.Types()
	full := sb.DistanceComputations(all)
	if full == 0 {
		t.Fatal("local sharded bank counts no distance computations")
	}
	if got, want := len(sb.ShardTypes(0))+len(sb.ShardTypes(1)), len(all); got != want {
		t.Fatalf("shard type lists cover %d types, want %d", got, want)
	}

	mixed, err := NewShardedBankFrom(smallConfig(), []Shard{sb.Shard(0), opaqueShard{sb.Shard(1).(*Bank)}})
	if err != nil {
		t.Fatal(err)
	}
	got := mixed.DistanceComputations(all)
	want := sb.Shard(0).(*Bank).DistanceComputations(mixed.ShardTypes(0))
	if got != want {
		t.Fatalf("mixed DistanceComputations = %d, want the local shard's %d (opaque shard contributes zero)", got, want)
	}
}

// TestShardedEnrollReconcilesLostAck: when the shard already holds the
// type (the remote case of an enrolment whose ack was lost in a
// transport failure and whose retry reports "already enrolled"),
// ShardedBank.Enroll must adopt the shard's authoritative state instead
// of leaving an owned-by-nobody type that classifies but never
// discriminates.
func TestShardedEnrollReconcilesLostAck(t *testing.T) {
	train, _ := shardTrainingSet(t, 4, 8)
	sb, err := TrainSharded(smallConfig(), 2, train)
	if err != nil {
		t.Fatal(err)
	}
	extra, _ := shardTrainingSet(t, 5, 8)
	name := "type-04"
	prints := extra[name]

	// The enrolment "landed" on the least-loaded shard behind the
	// logical bank's back — exactly what a lost enroll ack looks like.
	target := 4 % sb.Shards() // least-loaded routing for the 5th type
	if err := sb.Shard(target).(*Bank).Enroll(name, prints); err != nil {
		t.Fatal(err)
	}

	if err := sb.Enroll(name, prints); err != nil {
		t.Fatalf("Enroll after lost ack = %v, want reconciliation with the shard", err)
	}
	if s, ok := sb.ShardOf(name); !ok || s != target {
		t.Fatalf("ShardOf(%q) = (%d, %v), want (%d, true)", name, s, ok, target)
	}
	if got := sb.Types(); got[len(got)-1] != name {
		t.Fatalf("global order %v does not end with reconciled %q", got, name)
	}
	// A second logical enrolment is still a duplicate.
	if err := sb.Enroll(name, prints); err == nil {
		t.Fatal("duplicate enrolment accepted after reconciliation")
	}
}
