package controlplane

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/fingerprint"
	"repro/internal/vulndb"
)

// groupCluster assembles the standard mint-test topology: a local
// partition plus a 2-member replicated group (the group is least
// loaded, so enrolments land on it).
func groupCluster(t *testing.T, cfg ClusterConfig, names []string, train map[string][]*fingerprint.Fingerprint) *Cluster {
	t.Helper()
	cl, err := Assemble(cfg, Topology{Partitions: []PartitionSpec{
		{Types: names[0:4], Local: true},
		{Types: names[4:6], Members: 2},
	}}, train)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if cl.Group(1) == nil {
		t.Fatal("partition 1 is not a shard group")
	}
	return cl
}

// mustSnapshot snapshots a bank or fails the test.
func mustSnapshot(t *testing.T, b *core.Bank) []byte {
	t.Helper()
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestMintSnapshotBitIdenticalToReplay: the two minting paths — state
// transfer from an incumbent and history replay — must produce
// bit-identical banks, before and after post-assembly enrolment events,
// and both must match the live incumbents.
func TestMintSnapshotBitIdenticalToReplay(t *testing.T) {
	train, _, names := topologyData(t, 6, 5)
	cl := groupCluster(t, ClusterConfig{Core: tinyCoreConfig(), CacheSize: 64, DB: vulndb.Seeded()}, names, train)

	check := func(stage string) {
		t.Helper()
		viaSnap, err := cl.MintReplacement(1, MintSnapshot)
		if err != nil {
			t.Fatalf("%s: snapshot mint: %v", stage, err)
		}
		viaReplay, err := cl.MintReplacement(1, MintReplay)
		if err != nil {
			t.Fatalf("%s: replay mint: %v", stage, err)
		}
		a, b := mustSnapshot(t, viaSnap), mustSnapshot(t, viaReplay)
		if !core.SnapshotsEqual(a, b) {
			t.Fatalf("%s: snapshot-minted bank differs from replay-minted (%d vs %d bytes)", stage, len(a), len(b))
		}
		if inc := mustSnapshot(t, cl.MemberBank(1, 0)); !core.SnapshotsEqual(a, inc) {
			t.Fatalf("%s: minted bank differs from the live incumbent", stage)
		}
	}
	check("fresh assembly")

	// Append history: an enrolment event on the group partition.
	canary := devices.Names()[6]
	ds, err := devices.GenerateDataset(devices.DefaultEnv(), 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Enroll(canary, ds[canary][:5]); err != nil {
		t.Fatal(err)
	}
	if s, ok := cl.Bank().ShardOf(canary); !ok || s != 1 {
		t.Fatalf("canary landed on shard %d,%v, want the group partition 1", s, ok)
	}
	check("after enrolment event")
}

// TestConsecutiveReplayMintsIdentical is the regression test for the
// replay-order bug: minting from history twice in a row — including
// across a real membership roll — must observe the same cached
// enrolment order and produce bit-identical banks.
func TestConsecutiveReplayMintsIdentical(t *testing.T) {
	train, _, names := topologyData(t, 6, 5)
	cl := groupCluster(t, ClusterConfig{Core: tinyCoreConfig(), CacheSize: 64, DB: vulndb.Seeded()}, names, train)

	first, err := cl.MintReplacement(1, MintReplay)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.MintReplacement(1, MintReplay)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Types(), second.Types()) {
		t.Fatalf("consecutive replay mints observed different enrolment orders: %v vs %v", first.Types(), second.Types())
	}
	if !core.SnapshotsEqual(mustSnapshot(t, first), mustSnapshot(t, second)) {
		t.Fatal("consecutive replay mints are not bit-identical")
	}

	// Two consecutive real rolls through the replay path: the second must
	// see the same base order the first did.
	if err := cl.ReplaceMemberWith(1, 0, MintReplay); err != nil {
		t.Fatal(err)
	}
	afterFirst := mustSnapshot(t, cl.MemberBank(1, 0))
	if err := cl.ReplaceMemberWith(1, 0, MintReplay); err != nil {
		t.Fatal(err)
	}
	afterSecond := mustSnapshot(t, cl.MemberBank(1, 0))
	if !core.SnapshotsEqual(afterFirst, afterSecond) {
		t.Fatal("two consecutive rolls minted different banks (replay order not stable)")
	}
	if !core.SnapshotsEqual(afterSecond, mustSnapshot(t, cl.MemberBank(1, 1))) {
		t.Fatal("rolled member diverged from its untouched peer")
	}
	if !cl.Healthy() {
		t.Fatal("cluster unhealthy after consecutive rolls")
	}
}

// TestMintAutoFallsBackOnBrokenTransfer: with every member of the
// partition stopped, the snapshot transfer breaks — the strict snapshot
// strategy is an error, while MintAuto silently takes the replay path
// and mints the bank a replay would. Revived, the members take a full
// roll that lands a bit-identical replacement.
func TestMintAutoFallsBackOnBrokenTransfer(t *testing.T) {
	train, _, names := topologyData(t, 6, 5)
	cl := groupCluster(t, ClusterConfig{Core: tinyCoreConfig(), CacheSize: 64, DB: vulndb.Seeded()}, names, train)

	for j := 0; j < cl.Members(1); j++ {
		if err := cl.Member(1, j).Stop(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.MintReplacement(1, MintSnapshot); err == nil {
		t.Fatal("strict snapshot mint succeeded with every member stopped")
	}
	auto, err := cl.MintReplacement(1, MintAuto)
	if err != nil {
		t.Fatalf("auto mint over a broken transfer: %v", err)
	}
	replay, err := cl.MintReplacement(1, MintReplay)
	if err != nil {
		t.Fatal(err)
	}
	if !core.SnapshotsEqual(mustSnapshot(t, auto), mustSnapshot(t, replay)) {
		t.Fatal("auto mint's fallback bank differs from an explicit replay mint")
	}

	for j := 0; j < cl.Members(1); j++ {
		if err := cl.Member(1, j).Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.ReplaceMember(1, 0); err != nil {
		t.Fatalf("member roll after the revival: %v", err)
	}
	if !core.SnapshotsEqual(mustSnapshot(t, cl.MemberBank(1, 0)), mustSnapshot(t, cl.MemberBank(1, 1))) {
		t.Fatal("rolled member diverged from its peer")
	}
	if !cl.Healthy() {
		t.Fatal("cluster unhealthy after the roll")
	}
}

// TestRepairMemberConvergesDivergence: a group member that silently
// lost a type (a missed fan-out, a stale revival) is reconciled in
// place by RepairMember — the missed enrolment replays straight at the
// lagging member, the members converge, and a second repair finds
// nothing to do.
func TestRepairMemberConvergesDivergence(t *testing.T) {
	train, probeByType, names := topologyData(t, 6, 5)
	cl := groupCluster(t, ClusterConfig{Core: tinyCoreConfig(), CacheSize: 64, DB: vulndb.Seeded()}, names, train)

	victim := names[4]
	if err := cl.MemberBank(1, 1).Remove(victim); err != nil {
		t.Fatal(err)
	}
	repaired, err := cl.RepairMember(1, 1)
	if err != nil {
		t.Fatalf("RepairMember: %v", err)
	}
	if !reflect.DeepEqual(repaired, []string{victim}) {
		t.Fatalf("repaired %v, want [%s]", repaired, victim)
	}

	var lists [][]string
	for j := 0; j < cl.Members(1); j++ {
		types := cl.MemberBank(1, j).Types()
		sort.Strings(types)
		lists = append(lists, types)
	}
	if !reflect.DeepEqual(lists[0], lists[1]) {
		t.Fatalf("members still diverged after repair: %v vs %v", lists[0], lists[1])
	}
	if resp := cl.Service().Identify("02:aa:00:00:03:01", probeByType[victim]); resp.Error != "" || !resp.Known {
		t.Fatalf("repaired type no longer identifies: known=%v err=%q", resp.Known, resp.Error)
	}
	again, err := cl.RepairMember(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second repair re-applied %v, want nothing", again)
	}
	if !cl.Healthy() {
		t.Fatal("cluster unhealthy after repair")
	}
}
