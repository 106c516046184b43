package iotssp

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fingerprint"
)

// TestSnapshotRestoreOverWire moves a trained shard between two servers
// by state transfer: snapshot from one remote, restore into the other,
// and require the restored shard to be bit-identical.
func TestSnapshotRestoreOverWire(t *testing.T) {
	fix := getShardFixture(t)
	src := freshShardedBank(t).Shard(0).(*core.Bank)
	dst := freshShardedBank(t).Shard(0).(*core.Bank)
	// Diverge the destination so the restore visibly replaces state.
	if err := dst.Enroll(fix.spareName, fix.sparePrints); err != nil {
		t.Fatal(err)
	}

	srcReplica := startShardReplica(t, src)
	dstReplica := startShardReplica(t, dst)
	srcRemote := NewRemoteShard(srcReplica.Addr(), RemoteShardConfig{Seed: 41})
	defer srcRemote.Close()
	dstRemote := NewRemoteShard(dstReplica.Addr(), RemoteShardConfig{Seed: 43})
	defer dstRemote.Close()

	snap, err := srcRemote.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot over wire: %v", err)
	}
	local, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !core.SnapshotsEqual(snap, local) {
		t.Fatal("wire snapshot differs from the shard's local snapshot")
	}
	if err := dstRemote.Restore(snap); err != nil {
		t.Fatalf("Restore over wire: %v", err)
	}
	if got, want := dstRemote.Types(), src.Types(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored shard types %v, want %v", got, want)
	}
	if got, want := dstRemote.ClassifyBatch(fix.probes, 0), src.ClassifyBatch(fix.probes, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("restored shard classifies differently from the source")
	}
	after, err := dst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !core.SnapshotsEqual(after, local) {
		t.Fatal("restored shard's snapshot is not bit-identical to the source's")
	}
	// The restore must have pushed a version bump to the source of truth:
	// the destination remote's cached version tracks the restored state.
	if got, want := dstRemote.Version(), src.Version(); got != want {
		t.Fatalf("restored remote cached version %d, want %d", got, want)
	}
}

// TestRestoreOverWireRejectsCorrupt: a corrupt snapshot is refused by
// the serving shard without disturbing it, and the refusal is not
// retried into a timeout.
func TestRestoreOverWireRejectsCorrupt(t *testing.T) {
	fix := getShardFixture(t)
	bank := freshShardedBank(t).Shard(0).(*core.Bank)
	replica := startShardReplica(t, bank)
	remote := NewRemoteShard(replica.Addr(), RemoteShardConfig{Seed: 47})
	defer remote.Close()

	before, err := bank.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := remote.Restore(before[:len(before)/2]); err == nil {
		t.Fatal("truncated snapshot restored over the wire")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("corrupt restore took %s (retried a non-retryable refusal?)", time.Since(start))
	}
	after, err := bank.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !core.SnapshotsEqual(before, after) {
		t.Fatal("refused restore disturbed the serving shard")
	}
	_ = fix
}

// TestClassifyEncodings: classify batches travel delta-packed (or
// dictionary-coded, on a dictionary connection); an empty or unknown
// encoding is refused non-retryably.
func TestClassifyEncodings(t *testing.T) {
	fix := getShardFixture(t)
	replica := startShardReplica(t, freshShardedBank(t).Shard(0).(*core.Bank))

	packed, err := fingerprint.PackDelta(fix.probes[0])
	if err != nil {
		t.Fatal(err)
	}
	if m := rawLine(t, replica.Addr(), `{"op":"classify","enc":"delta","batch":["`+packed+`"]}`); m["error"] != nil {
		t.Fatalf("delta batch = %v", m)
	}
	for _, enc := range []string{"", "zstd"} {
		m := rawLine(t, replica.Addr(), `{"op":"classify","enc":"`+enc+`","batch":["`+packed+`"]}`)
		if m["error"] == nil || m["retryable"] == true {
			t.Fatalf("batch encoding %q = %v, want a non-retryable refusal", enc, m)
		}
	}
}

// TestDeltaStreamPushesVersion: a subscribed verdict front learns of a
// remote enrolment from the server's pushed version bump alone — its
// own request counter must not move while the cached version catches
// up, proving no classify or meta round-trip was spent.
func TestDeltaStreamPushesVersion(t *testing.T) {
	fix := getShardFixture(t)
	bank := freshShardedBank(t).Shard(0).(*core.Bank)
	replica := startShardReplica(t, bank)

	front := NewRemoteShard(replica.Addr(), RemoteShardConfig{Seed: 61})
	defer front.Close()
	// Prime the connection (the hello subscribes it on the first dial).
	if got, want := front.Types(), bank.Types(); !reflect.DeepEqual(got, want) {
		t.Fatalf("front types %v, want %v", got, want)
	}
	v0 := front.Version()
	requests0 := front.Counters().Requests

	// A second client enrolls through the server; the front must observe
	// the bump purely from the pushed delta line.
	writer := NewRemoteShard(replica.Addr(), RemoteShardConfig{Seed: 67})
	defer writer.Close()
	if err := writer.Enroll(fix.spareName, fix.sparePrints); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for front.Version() == v0 {
		if time.Now().After(deadline) {
			t.Fatalf("front never observed the pushed version bump (still %d)", v0)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := front.Version(); got != v0+1 {
		t.Fatalf("front version after push = %d, want %d", got, v0+1)
	}
	st := front.Counters()
	if st.Requests != requests0 {
		t.Fatalf("front spent %d round-trips learning of the enrolment, want 0 (delta stream)", st.Requests-requests0)
	}
	if st.DeltasReceived == 0 {
		t.Fatal("front counted no received deltas")
	}
	if st.Transport.Pushes == 0 {
		t.Fatal("transport counted no pushed lines")
	}
}
