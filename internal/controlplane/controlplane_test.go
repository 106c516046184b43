package controlplane

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/fingerprint"
	"repro/internal/ml"
	"repro/internal/vulndb"
)

// topologyData generates a tiny dataset: training prints for the first
// nTypes device-types plus one held-out probe per type (including types
// beyond nTypes, usable as canaries and unknown-device probes).
func topologyData(t *testing.T, nTypes, runs int) (train map[string][]*fingerprint.Fingerprint, probes map[string]*fingerprint.Fingerprint, names []string) {
	t.Helper()
	all := devices.Names()
	if nTypes+1 > len(all) {
		t.Fatalf("dataset has only %d types", len(all))
	}
	ds, err := devices.GenerateDataset(devices.DefaultEnv(), 7, runs+1)
	if err != nil {
		t.Fatal(err)
	}
	train = make(map[string][]*fingerprint.Fingerprint, nTypes)
	probes = make(map[string]*fingerprint.Fingerprint, nTypes+1)
	for i, name := range all {
		probes[name] = ds[name][runs]
		if i < nTypes {
			train[name] = ds[name][:runs]
		}
	}
	return train, probes, all[:nTypes]
}

func tinyCoreConfig() core.BankConfig {
	return core.BankConfig{Forest: ml.ForestConfig{Trees: 10}, Seed: 3}
}

// warmAndClassify caches every probe's verdict and records, per probe,
// the pre-mutation shard dependencies (nil = unknown verdict, which
// depends on every shard).
func warmAndClassify(t *testing.T, cl *Cluster, probes []*fingerprint.Fingerprint) [][]int {
	t.Helper()
	deps := make([][]int, len(probes))
	for i, fp := range probes {
		res := cl.Bank().Identify(fp)
		if res.Known {
			seen := make(map[int]bool)
			for _, name := range res.Accepted {
				if s, ok := cl.Bank().ShardOf(name); ok && !seen[s] {
					seen[s] = true
					deps[i] = append(deps[i], s)
				}
			}
		}
		if resp := cl.Service().Identify("02:aa:00:00:00:01", fp); resp.Error != "" {
			t.Fatalf("warming probe %d: %s", i, resp.Error)
		}
	}
	return deps
}

// splitDeps counts probes into (dependent, independent) of the given
// shards, per the recorded dependency sets.
func splitDeps(deps [][]int, shards ...int) (dependent, independent int) {
	hit := make(map[int]bool, len(shards))
	for _, s := range shards {
		hit[s] = true
	}
	for _, d := range deps {
		dep := d == nil
		for _, s := range d {
			if hit[s] {
				dep = true
			}
		}
		if dep {
			dependent++
		} else {
			independent++
		}
	}
	return dependent, independent
}

// TestAssembleEnrollInvalidatesOwningPartition enrols a new type
// through the logical bank of an assembled cluster. The partitions tie
// on load, so the type lands on the lower-indexed one, served by a
// shard server. The verdict cache drops exactly the entries that
// depended on that partition: bystander verdicts owned by the local
// partition keep serving.
func TestAssembleEnrollInvalidatesOwningPartition(t *testing.T) {
	train, probeByType, names := topologyData(t, 8, 5)
	cl, err := Assemble(ClusterConfig{Core: tinyCoreConfig(), CacheSize: 64, DB: vulndb.Seeded()}, Topology{Partitions: []PartitionSpec{
		{Types: names[0:4]},
		{Types: names[4:8], Local: true},
	}}, train)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	probes := make([]*fingerprint.Fingerprint, 0, 9)
	for _, name := range names {
		probes = append(probes, probeByType[name])
	}
	probes = append(probes, probeByType[devices.Names()[9]]) // unknown device
	deps := warmAndClassify(t, cl, probes)
	st0 := cl.Service().CacheStats()

	canary := devices.Names()[8]
	ds, err := devices.GenerateDataset(devices.DefaultEnv(), 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Bank().Enroll(canary, ds[canary]); err != nil {
		t.Fatal(err)
	}
	if s, ok := cl.Bank().ShardOf(canary); !ok || s != 0 {
		t.Fatalf("canary enrolled into shard %d,%v, want the remote partition 0", s, ok)
	}
	if got := cl.MemberBank(0, 0).Types(); !slices.Contains(got, canary) {
		t.Fatalf("remote partition's bank serves %v, want %q among them", got, canary)
	}

	dependent, independent := splitDeps(deps, 0)
	if dependent == 0 || independent == 0 {
		t.Fatalf("probes split %d dependent, %d independent; the drill needs both", dependent, independent)
	}
	for _, fp := range probes {
		cl.Service().Identify("02:aa:00:00:00:02", fp)
	}
	st1 := cl.Service().CacheStats()
	if got := st1.Invalidations - st0.Invalidations; got != uint64(dependent) {
		t.Errorf("invalidations = %d, want exactly %d (one enrolment bump)", got, dependent)
	}
	if got := st1.Hits - st0.Hits; got != uint64(independent) {
		t.Errorf("hits = %d, want %d (bystander verdicts must survive)", got, independent)
	}
}

// TestAssembleRejectsBadTopologies: an empty topology, an empty
// partition, a type dealt to two partitions and a type without
// training prints are refused before anything trains or starts.
func TestAssembleRejectsBadTopologies(t *testing.T) {
	train, _, names := topologyData(t, 2, 2)
	for _, tc := range []struct {
		name string
		topo Topology
	}{
		{"no partitions", Topology{}},
		{"empty partition", Topology{Partitions: []PartitionSpec{{Types: names, Local: true}, {Local: true}}}},
		{"shared type", Topology{Partitions: []PartitionSpec{{Types: names, Local: true}, {Types: names[:1]}}}},
		{"untrained type", Topology{Partitions: []PartitionSpec{{Types: append(names, "Ghost"), Local: true}}}},
	} {
		if cl, err := Assemble(ClusterConfig{Core: tinyCoreConfig()}, tc.topo, train); err == nil {
			cl.Close()
			t.Errorf("%s: Assemble accepted the topology", tc.name)
		}
	}
}

// TestComponentContract pins the structural Component conformance of a
// live cluster's snapshot surface: every managed component reports
// under a known stats kind with non-empty payload, and Healthy is the
// conjunction of the members'.
func TestComponentContract(t *testing.T) {
	train, _, names := topologyData(t, 4, 4)
	cl, err := Assemble(ClusterConfig{Core: tinyCoreConfig(), CacheSize: -1, DB: vulndb.Seeded()}, Topology{Partitions: []PartitionSpec{
		{Types: names[0:2], Local: true},
		{Types: names[2:3]},
		{Types: names[3:4]},
	}}, train)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	kinds := make(map[string]int)
	for _, snap := range cl.Snapshots() {
		if len(snap.Data) == 0 {
			t.Errorf("component kind %q reported empty stats", snap.Kind)
		}
		kinds[snap.Kind]++
	}
	// 2 shard replicas + 1 frontend, one remote-shard client each.
	if kinds["server"] != 3 || kinds["remote_shard"] != 2 {
		t.Fatalf("snapshot kinds = %v", kinds)
	}
	if !cl.Healthy() {
		t.Fatal("assembled cluster reports unhealthy")
	}
	if cl.Member(0) != nil {
		t.Fatal("local partition reports a shard replica")
	}
	if err := cl.Member(1).Stop(); err != nil {
		t.Fatal(err)
	}
	if cl.Healthy() {
		t.Fatal("cluster healthy with a stopped shard replica")
	}
	if err := cl.Member(1).Start(); err != nil {
		t.Fatal(err)
	}
	var comp Component = cl.Bank().Shard(2).(Component)
	if !comp.Healthy() {
		t.Fatal("remote shard unhealthy through the Component interface")
	}
}
