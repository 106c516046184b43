package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/internal/controlplane"
	"repro/internal/devices"
	"repro/internal/iotssp"
)

// ReplicatedConfig parameterizes the replicated-shard experiment: one
// logical ShardedBank whose remote partition is served by a ShardGroup
// of N identically trained shard servers, validated against the
// single-replica remote shard it replaces. Load's zero fields default
// as in DistributedConfig (9 types, the next one the canary of the
// fan-out invalidation check; 1024 requests per phase; 2 gateways with
// 8 in flight; batch 16), and Load.CacheSize likewise sizes only the
// invalidation phase's cache: the timed phases run uncached so every
// request exercises the bank — and therefore the group.
type ReplicatedConfig struct {
	Load
	// Shards is the logical bank's shard count (0 means 2). One shard —
	// the one the least-loaded router will hand the canary enrolment,
	// index Types mod Shards — is served by the replicated group; the
	// rest stay in-process.
	Shards int
	// Replicas is the shard group's member count (0 means 2).
	Replicas int
	// MaxP99Ratio fails the experiment unless the kill run's p99 latency
	// stays within this multiple of the no-kill run's p99 — the
	// zero-added-latency claim, quantified. 0 reports the ratio without
	// asserting (callers gate the assertion on GOMAXPROCS, like the
	// fleet experiment's MinScaling).
	MaxP99Ratio float64
	// Wire selects the group members' shard transports' wire (the
	// gateway pools always speak the plain identify wire). When it is
	// on, the run adds an uncompressed twin phase and reports the
	// measured gain.
	Wire iotssp.WireMode
	// MinWireGain, with Wire on, fails the run unless the uncompressed
	// twin's steady-state bytes/verdict divided by the compressed run's
	// reaches it (0 reports the gain without asserting).
	MinWireGain float64
}

func (c ReplicatedConfig) withDefaults() (ReplicatedConfig, error) {
	c.Load = c.Load.withDefaults(Load{Types: 9, Requests: 1024, Gateways: 2, InFlight: 8, BatchSize: 16})
	if c.Types < 2 || c.Types >= len(devices.Names()) {
		return c, fmt.Errorf("experiments: replicated Types must be in [2, %d) to leave a canary type", len(devices.Names()))
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.Shards < 1 || c.Shards > c.Types {
		return c, fmt.Errorf("experiments: replicated Shards must be in [1, Types]")
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Replicas < 2 {
		return c, fmt.Errorf("experiments: replicated Replicas must be >= 2 (one member is the single-replica baseline)")
	}
	return c, nil
}

// ReplicatedResult is the outcome of the replicated-shard experiment.
type ReplicatedResult struct {
	EnrolledTypes int
	Shards        int
	// ReplicatedShard is the shard index served by the group; Replicas
	// the group's member count.
	ReplicatedShard int
	Replicas        int
	Requests        int
	Gateways        int

	// SinglePerSec is the single-replica remote shard (the PR 4
	// configuration, no kill); GroupPerSec the shard group without a
	// kill; KillPerSec the shard group with the mid-run member restart.
	SinglePerSec float64
	GroupPerSec  float64
	KillPerSec   float64

	// NoKillP50/NoKillP99 are the group run's request latencies without
	// a kill; KillP50/KillP99 with the mid-run member restart. P99Ratio
	// is KillP99/NoKillP99 — the restart's latency cost, which the
	// failover machinery must keep near 1 (a single-replica restart
	// instead costs every in-flight request a retry burst).
	NoKillP50, NoKillP99 time.Duration
	KillP50, KillP99     time.Duration
	P99Ratio             float64

	// MismatchesNoKill/MismatchesKill count group verdicts differing
	// from the single-replica reference (the bit-equality assertions
	// fail unless both are zero). Lost counts kill-run requests that
	// returned no verdict.
	MismatchesNoKill int
	MismatchesKill   int
	Lost             int

	// MemberKilled reports whether a group member was stopped mid-run;
	// Restarted whether it came back. Ejections/Readmissions/Failovers
	// snapshot the group's health machinery after the kill run.
	MemberKilled bool
	Restarted    bool
	Ejections    uint64
	Readmissions uint64
	Failovers    uint64

	// Fan-out enrolment invalidation check: enrolling the canary through
	// the logical bank must route it to the group shard (CanaryShard ==
	// ReplicatedShard), land on every member, and bump the reconciled
	// version exactly once — invalidating exactly the dependent verdicts.
	CanaryType        string
	CanaryShard       int
	DependentProbes   int
	IndependentProbes int

	// WireCost is the shard-plane wire cost across the two group phases
	// and, with compression on, its gain over an uncompressed twin of
	// the no-kill phase.
	WireCost

	// Metrics is the run's single JSON stats snapshot.
	Metrics *MetricsSnapshot
}

// RunReplicatedShards validates and measures the replicated shard
// group:
//
//   - Single replica: the logical bank reaches its remote partition
//     through one RemoteShard against one shard server — the PR 4
//     configuration, and the reference both for verdict bit-equality
//     and for the no-failover latency profile.
//   - Group, no kill: the same partition served by Replicas identically
//     trained shard servers behind an iotssp.ShardGroup. Verdicts must
//     be bit-equal to the single-replica reference.
//   - Group, kill: a third of the way into the run one group member is
//     stopped and revived 100ms later. The group's health-aware
//     failover must carry every request across the outage — zero lost
//     verdicts, still bit-equal, and p99 latency within MaxP99Ratio of
//     the no-kill run (a single-replica shard restart instead stalls
//     every in-flight scatter in a retry burst until the server
//     returns).
//   - Fan-out invalidation: a fresh verdict cache is warmed over the
//     group-backed bank, the canary type is enrolled through the
//     cluster's control plane (least-loaded routing hands it to the
//     group shard, the group fans it out to every member), and the
//     reconciled version bump must invalidate exactly the dependent
//     cache entries exactly once — counted by the Invalidations counter
//     — with every member trained and version-aligned afterwards.
//
// Both serving stacks are assembled through controlplane.Cluster: the
// reference as a Members-1 remote partition, the group as the same
// partition with Members = Replicas (identical training history, so
// bit-equal by construction). The timed phases run with the verdict
// cache disabled so every request crosses the bank (and the group), not
// the front cache.
func RunReplicatedShards(cfg ReplicatedConfig) (*ReplicatedResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	w, err := buildWorkload(cfg.Load, 0xf5)
	if err != nil {
		return nil, err
	}
	groupIdx := cfg.Types % cfg.Shards

	res := &ReplicatedResult{
		EnrolledTypes:   cfg.Types,
		Shards:          cfg.Shards,
		ReplicatedShard: groupIdx,
		Replicas:        cfg.Replicas,
		Requests:        cfg.Requests,
		Gateways:        cfg.Gateways,
		WireCost:        WireCost{Wire: cfg.Wire},
		CanaryType:      w.canary,
		CanaryShard:     -1,
	}

	// Phase 1 — single-replica reference: the remote partition behind
	// one shard server and one deep-retry RemoteShard.
	singleCfg := cfg.cluster(-1)
	singleCfg.Shard = iotssp.RemoteShardConfig{
		RetryBackoff: 2 * time.Millisecond,
		MaxBackoff:   50 * time.Millisecond,
		Seed:         cfg.Seed + 101,
	}
	singleCl, err := controlplane.Assemble(singleCfg, topology(w.train, cfg.Shards, groupIdx, 1), w.train)
	if err != nil {
		return nil, err
	}
	refTypes := singleCl.Bank().Types()
	ref := replay(wirePools(singleCl.Addr(), cfg.Load, cfg.Seed), w, cfg.InFlight)
	singleCl.Close()
	if ref.lost > 0 {
		return nil, fmt.Errorf("single-replica phase lost %d verdicts with no failure injected", ref.lost)
	}
	res.SinglePerSec = ref.perSec

	// group assembles the same partition behind a Replicas-member shard
	// group.
	group := func(seed int64, wire iotssp.WireMode) (*controlplane.Cluster, error) {
		cc := cfg.cluster(-1)
		cc.Group = groupConfig(seed, wire)
		return controlplane.Assemble(cc, topology(w.train, cfg.Shards, groupIdx, cfg.Replicas), w.train)
	}

	// Phase 2 — the shard group, no kill: the latency profile the kill
	// run is held against.
	cl, err := group(cfg.Seed+211, cfg.Wire)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if got := cl.Bank().Types(); !reflect.DeepEqual(got, refTypes) {
		return nil, fmt.Errorf("group-backed bank reassembled order %v, want %v", got, refTypes)
	}

	noKill := replay(wirePools(cl.Addr(), cfg.Load, cfg.Seed), w, cfg.InFlight)
	if noKill.lost > 0 {
		return nil, fmt.Errorf("group no-kill phase lost %d verdicts with no failure injected", noKill.lost)
	}
	res.GroupPerSec = noKill.perSec
	res.NoKillP50, res.NoKillP99 = noKill.p50, noKill.p99
	res.MismatchesNoKill = noKill.mismatches(ref)
	if res.MismatchesNoKill > 0 {
		return res, fmt.Errorf("%d of %d group verdicts differ from the single-replica reference (want bit-equal)", res.MismatchesNoKill, cfg.Requests)
	}

	// Phase 3 — the shard group with a mid-run member restart.
	member := cl.Member(groupIdx, 0)
	kill := replay(wirePools(cl.Addr(), cfg.Load, cfg.Seed), w, cfg.InFlight, drill{after: cfg.Requests / 3, fn: func() {
		res.MemberKilled = true
		member.Stop()
		time.Sleep(100 * time.Millisecond)
		res.Restarted = member.Start() == nil
	}})
	res.KillPerSec = kill.perSec
	res.KillP50, res.KillP99 = kill.p50, kill.p99
	res.Lost = kill.lost
	res.MismatchesKill = kill.mismatches(ref)
	if res.NoKillP99 > 0 {
		res.P99Ratio = float64(res.KillP99) / float64(res.NoKillP99)
	}
	gst := cl.Group(groupIdx).Counters()
	res.Failovers = gst.Failovers
	for _, m := range gst.Members {
		res.Ejections += m.Ejections
		res.Readmissions += m.Readmissions
	}
	res.Metrics = kill.metrics("replicated", cl)
	// The group cluster served both timed phases (no-kill and kill).
	res.BytesPerVerdict = res.Metrics.ComputeBytesPerVerdict(2 * cfg.Requests)

	if kill.lost > 0 {
		return res, fmt.Errorf("shard group lost %d of %d verdicts across the member restart (want zero: failover must carry every request)", kill.lost, cfg.Requests)
	}
	if res.MismatchesKill > 0 {
		return res, fmt.Errorf("%d of %d kill-run verdicts differ from the single-replica reference (want bit-equal)", res.MismatchesKill, cfg.Requests)
	}
	if !res.Restarted {
		return res, fmt.Errorf("killed group member failed to restart")
	}
	if res.Ejections == 0 && res.Failovers == 0 {
		return res, fmt.Errorf("member restart left no failover/ejection trace in the group stats: %+v", gst)
	}
	if cfg.MaxP99Ratio > 0 && res.P99Ratio > cfg.MaxP99Ratio {
		return res, fmt.Errorf("kill-run p99 %s is %.2fx the no-kill p99 %s (max %.2fx): the member restart was not absorbed",
			res.KillP99, res.P99Ratio, res.NoKillP99, cfg.MaxP99Ratio)
	}

	// Wire-off twin — with compression on, price the workload once on
	// the plain wire against the single-replica reference's verdicts.
	// Both costs are per-verdict normalized, so the twin's single phase
	// compares cleanly against the group cluster's two.
	if cfg.Wire != iotssp.WireOff {
		twin, err := group(cfg.Seed+223, iotssp.WireOff)
		if err != nil {
			return res, err
		}
		if err := res.priceTwin(twin, w, cfg.Load, cfg.Seed+223, res.Metrics, ref, cfg.MinWireGain); err != nil {
			return res, err
		}
	}

	// Phase 4 — fan-out enrolment drives shard-scoped invalidation
	// exactly once.
	invSvc := cl.AuxService(cfg.CacheSize)
	shard, dependent, independent, err := checkShardScopedInvalidation(invSvc, cl, w)
	res.CanaryShard = shard
	res.DependentProbes = dependent
	res.IndependentProbes = independent
	if err != nil {
		return res, err
	}
	if shard != groupIdx {
		return res, fmt.Errorf("canary %q enrolled into shard %d, want the group shard %d (least-loaded routing)", w.canary, shard, groupIdx)
	}
	// Every member must have trained the canary and agree on the
	// reconciled version the cache invalidated against.
	wantVersion := cl.Bank().Versions()[groupIdx]
	for j := 0; j < cfg.Replicas; j++ {
		bank := cl.MemberBank(groupIdx, j)
		if got := bank.Version(); got != wantVersion {
			return res, fmt.Errorf("member %d version %d diverged from the reconciled group version %d after the fan-out enrolment", j, got, wantVersion)
		}
		types := bank.Types()
		if len(types) == 0 || types[len(types)-1] != w.canary {
			return res, fmt.Errorf("member %d missing the fanned-out canary %q: %v", j, w.canary, types)
		}
	}
	return res, nil
}

// RenderReplicated formats the replicated-shard experiment for the
// terminal.
func (r *ReplicatedResult) RenderReplicated() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Replicated shard group — %d types over %d shards (shard %d behind %d replicas), %d requests, %d gateways\n",
		r.EnrolledTypes, r.Shards, r.ReplicatedShard, r.Replicas, r.Requests, r.Gateways)
	fmt.Fprintf(&sb, "%-40s %12s %10s %10s\n", "mode", "requests/s", "p50", "p99")
	fmt.Fprintf(&sb, "%-40s %12.1f %10s %10s\n", "single-replica remote shard", r.SinglePerSec, "-", "-")
	fmt.Fprintf(&sb, "%-40s %12.1f %10s %10s\n", "2+ replica shard group (no kill)", r.GroupPerSec, r.NoKillP50, r.NoKillP99)
	fmt.Fprintf(&sb, "%-40s %12.1f %10s %10s\n", "shard group (member kill + revive)", r.KillPerSec, r.KillP50, r.KillP99)
	fmt.Fprintf(&sb, "verdicts: %d+%d mismatches vs single-replica reference (bit-equal), %d lost\n",
		r.MismatchesNoKill, r.MismatchesKill, r.Lost)
	if r.MemberKilled {
		revived := "left down"
		if r.Restarted {
			revived = "revived"
		}
		fmt.Fprintf(&sb, "failure drill: group member killed mid-run (%s); p99 ratio %.2fx vs no-kill (%d ejections, %d readmissions, %d failovers)\n",
			revived, r.P99Ratio, r.Ejections, r.Readmissions, r.Failovers)
	}
	if r.CanaryShard >= 0 {
		fmt.Fprintf(&sb, "fan-out invalidation: enrolling %q landed on group shard %d across every replica and invalidated %d dependent verdicts exactly once, kept %d\n",
			r.CanaryType, r.CanaryShard, r.DependentProbes, r.IndependentProbes)
	}
	r.WireCost.render(&sb)
	if r.Metrics != nil {
		fmt.Fprintf(&sb, "metrics: %s\n", r.Metrics.JSON())
	}
	return sb.String()
}
