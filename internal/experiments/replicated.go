package experiments

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/iotssp"
	"repro/internal/ml"
	"repro/internal/vulndb"
)

// ReplicatedConfig parameterizes the replicated-shard experiment: one
// logical ShardedBank whose remote partition is served by a ShardGroup
// of N identically trained shard servers, validated against the
// single-replica remote shard it replaces.
type ReplicatedConfig struct {
	// Types is the number of enrolled device-types (0 means 9). It must
	// stay below the full catalog: the next catalog type is the canary
	// enrolment for the fan-out invalidation check.
	Types int
	// Runs is the number of training fingerprints per type (0 means 8).
	Runs int
	// Trees is the per-type forest size (0 means 100).
	Trees int
	// ProbeModels is the number of distinct probe fingerprints per type
	// the workload draws from (0 means 2).
	ProbeModels int
	// Requests is the total identification requests replayed per phase
	// (0 means 1024: long enough that the v4 dictionary's one-time
	// seeding misses amortize out of the steady-state bytes/verdict).
	Requests int
	// Gateways is the number of concurrent gateway clients (0 means 2),
	// InFlight each gateway's concurrent requests (0 means 8).
	Gateways int
	InFlight int
	// Shards is the logical bank's shard count (0 means 2). One shard —
	// the one the least-loaded router will hand the canary enrolment,
	// index Types mod Shards — is served by the replicated group; the
	// rest stay in-process.
	Shards int
	// Replicas is the shard group's member count (0 means 2).
	Replicas int
	// BatchSize and Workers tune the front server's dispatcher as in
	// ServiceConfig. CacheSize sizes the verdict cache of the
	// invalidation phase (0 selects the default); the timed
	// phases always run uncached so every request exercises the bank —
	// and therefore the group — rather than the front cache.
	BatchSize int
	CacheSize int
	Workers   int
	// NoKill disables the mid-run member restart drill.
	NoKill bool
	// MaxP99Ratio fails the experiment unless the kill run's p99 latency
	// stays within this multiple of the no-kill run's p99 — the
	// zero-added-latency claim, quantified. 0 reports the ratio without
	// asserting (callers gate the assertion on GOMAXPROCS, like the
	// fleet experiment's MinScaling).
	MaxP99Ratio float64
	// Wire selects the v4 wire compression for every client transport in
	// the run — gateway pools and the group members' shard transports.
	// When it is on, the run adds an uncompressed twin phase and reports
	// the measured gain.
	Wire iotssp.WireMode
	// MinWireGain, with Wire on, fails the run unless the uncompressed
	// twin's steady-state bytes/verdict divided by the compressed run's
	// reaches it (0 reports the gain without asserting).
	MinWireGain float64
	// Seed drives dataset generation, training and workload sampling.
	Seed int64
}

func (c ReplicatedConfig) withDefaults() (ReplicatedConfig, error) {
	if c.Types == 0 {
		c.Types = 9
	}
	if c.Types < 2 || c.Types >= len(devices.Names()) {
		return c, fmt.Errorf("experiments: replicated Types must be in [2, %d) to leave a canary type", len(devices.Names()))
	}
	if c.Runs == 0 {
		c.Runs = 8
	}
	if c.Trees == 0 {
		c.Trees = 100
	}
	if c.ProbeModels == 0 {
		c.ProbeModels = 2
	}
	if c.Requests == 0 {
		c.Requests = 1024
	}
	if c.Gateways == 0 {
		c.Gateways = 2
	}
	if c.InFlight == 0 {
		c.InFlight = 8
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
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.CacheSize == 0 {
		c.CacheSize = iotssp.DefaultCacheSize
	}
	return c, nil
}

// phase shapes the experiment's replay phases.
func (c ReplicatedConfig) phase() wirePhase {
	return wirePhase{Requests: c.Requests, Gateways: c.Gateways, InFlight: c.InFlight, Seed: c.Seed, Wire: c.Wire}
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

	// BytesPerVerdict is the measured shard-plane steady-state wire cost
	// per verdict across the two group phases (every member transport's
	// bytes in both directions, off the lineconn byte counters,
	// handshake and state-transfer bytes carved out).
	BytesPerVerdict float64

	// Wire is the run's wire-compression mode. With it on, the run adds
	// an uncompressed twin of the no-kill group phase:
	// BytesPerVerdictOff is that twin's cost, WireGain the off/on ratio
	// and DictHitRate the fingerprint dictionaries' hit rate across the
	// compressed phases.
	Wire               iotssp.WireMode
	BytesPerVerdictOff float64
	WireGain           float64
	DictHitRate        float64

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
	train, w, canary, canaryPrints, err := buildWireWorkload(cfg.Types, cfg.Runs, cfg.ProbeModels, cfg.Requests, cfg.Seed)
	if err != nil {
		return nil, err
	}
	coreCfg := core.BankConfig{
		Forest: ml.ForestConfig{Trees: cfg.Trees},
		Seed:   cfg.Seed,
	}
	groupIdx := cfg.Types % cfg.Shards

	res := &ReplicatedResult{
		EnrolledTypes:   cfg.Types,
		Shards:          cfg.Shards,
		ReplicatedShard: groupIdx,
		Replicas:        cfg.Replicas,
		Requests:        cfg.Requests,
		Gateways:        cfg.Gateways,
		Wire:            cfg.Wire,
		CanaryType:      canary,
		CanaryShard:     -1,
	}
	scfg := iotssp.ServerConfig{
		BatchSize: cfg.BatchSize,
		Workers:   cfg.Workers,
	}

	// Phase 1 — single-replica reference: the remote partition behind
	// one shard server and one deep-retry RemoteShard.
	singleCl, err := controlplane.Assemble(controlplane.ClusterConfig{
		Core:   coreCfg,
		Server: scfg,
		Shard: iotssp.RemoteShardConfig{
			RetryBackoff: 2 * time.Millisecond,
			MaxBackoff:   50 * time.Millisecond,
			Seed:         cfg.Seed + 101,
		},
		CacheSize: -1,
		DB:        vulndb.Seeded(),
	}, mixedTopology(train, cfg.Shards, groupIdx, 1), train)
	if err != nil {
		return nil, err
	}
	refTypes := singleCl.Bank().Types()
	refElapsed, _, refVerdicts, _, refLost := runWirePhase(singleCl.Addr(), w, cfg.phase(), nil)
	singleCl.Close()
	if refLost > 0 {
		return nil, fmt.Errorf("single-replica phase lost %d verdicts with no failure injected", refLost)
	}
	res.SinglePerSec = float64(cfg.Requests) / refElapsed.Seconds()

	// Phase 2 — the shard group, no kill: the latency profile the kill
	// run is held against. Group members fail over, they don't ride
	// outages: one cheap local retry per member, then the next replica
	// answers. The probe backoff is short so a revived member rejoins
	// within the run.
	cl, err := controlplane.Assemble(controlplane.ClusterConfig{
		Core:   coreCfg,
		Server: scfg,
		Group: iotssp.ShardGroupConfig{
			Shard: iotssp.RemoteShardConfig{
				MaxRetries:   1,
				RetryBackoff: 200 * time.Microsecond,
				MaxBackoff:   time.Millisecond,
				Seed:         cfg.Seed + 211,
				Wire:         cfg.Wire,
			},
			ProbeBackoff: 20 * time.Millisecond,
		},
		CacheSize: -1,
		DB:        vulndb.Seeded(),
	}, mixedTopology(train, cfg.Shards, groupIdx, cfg.Replicas), train)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if got := cl.Bank().Types(); !reflect.DeepEqual(got, refTypes) {
		return nil, fmt.Errorf("group-backed bank reassembled order %v, want %v", got, refTypes)
	}

	noKillElapsed, noKillLats, noKillVerdicts, _, noKillLost := runWirePhase(cl.Addr(), w, cfg.phase(), nil)
	if noKillLost > 0 {
		return nil, fmt.Errorf("group no-kill phase lost %d verdicts with no failure injected", noKillLost)
	}
	res.GroupPerSec = float64(cfg.Requests) / noKillElapsed.Seconds()
	res.NoKillP50, res.NoKillP99 = latPercentiles(noKillLats)
	for i := range noKillVerdicts {
		if !verdictsEqual(refVerdicts[i], noKillVerdicts[i]) {
			res.MismatchesNoKill++
		}
	}
	if res.MismatchesNoKill > 0 {
		return res, fmt.Errorf("%d of %d group verdicts differ from the single-replica reference (want bit-equal)", res.MismatchesNoKill, cfg.Requests)
	}

	// Phase 3 — the shard group with a mid-run member restart.
	var drills []wireDrill
	if !cfg.NoKill {
		member := cl.Member(groupIdx, 0)
		drills = cfg.phase().third(func() {
			res.MemberKilled = true
			member.Stop()
			time.Sleep(100 * time.Millisecond)
			if err := member.Start(); err == nil {
				res.Restarted = true
			}
		})
	}
	killElapsed, killLats, killVerdicts, poolStats, killLost := runWirePhase(cl.Addr(), w, cfg.phase(), drills)
	res.KillPerSec = float64(cfg.Requests) / killElapsed.Seconds()
	res.KillP50, res.KillP99 = latPercentiles(killLats)
	res.Lost = killLost
	for i := range killVerdicts {
		if !verdictsEqual(refVerdicts[i], killVerdicts[i]) {
			res.MismatchesKill++
		}
	}
	if res.NoKillP99 > 0 {
		res.P99Ratio = float64(res.KillP99) / float64(res.NoKillP99)
	}
	gst := cl.Group(groupIdx).Counters()
	res.Failovers = gst.Failovers
	for _, m := range gst.Members {
		res.Ejections += m.Ejections
		res.Readmissions += m.Readmissions
	}
	res.Metrics = &MetricsSnapshot{Experiment: "replicated", Components: cl.Snapshots()}
	for _, ps := range poolStats {
		res.Metrics.Components = append(res.Metrics.Components, ps.Snapshot())
	}
	// The group cluster served both timed phases (no-kill and kill).
	res.BytesPerVerdict = res.Metrics.ComputeBytesPerVerdict(2 * cfg.Requests)

	if killLost > 0 {
		return res, fmt.Errorf("shard group lost %d of %d verdicts across the member restart (want zero: failover must carry every request)", killLost, cfg.Requests)
	}
	if res.MismatchesKill > 0 {
		return res, fmt.Errorf("%d of %d kill-run verdicts differ from the single-replica reference (want bit-equal)", res.MismatchesKill, cfg.Requests)
	}
	if res.MemberKilled {
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
	}

	// Wire-off twin — with compression on, replay the workload once
	// against an identically trained group speaking the plain wire (no
	// kill: the twin prices the steady state). Verdicts must stay
	// bit-equal to the reference, and the off/on bytes-per-verdict
	// ratio is the gain MinWireGain asserts. Both numbers are
	// per-verdict normalized, so the twin's single phase compares
	// cleanly against the group cluster's two.
	if cfg.Wire != iotssp.WireOff {
		res.DictHitRate = res.Metrics.DictHitRate
		offCl, err := controlplane.Assemble(controlplane.ClusterConfig{
			Core:   coreCfg,
			Server: scfg,
			Group: iotssp.ShardGroupConfig{
				Shard: iotssp.RemoteShardConfig{
					MaxRetries:   1,
					RetryBackoff: 200 * time.Microsecond,
					MaxBackoff:   time.Millisecond,
					Seed:         cfg.Seed + 223,
				},
				ProbeBackoff: 20 * time.Millisecond,
			},
			CacheSize: -1,
			DB:        vulndb.Seeded(),
		}, mixedTopology(train, cfg.Shards, groupIdx, cfg.Replicas), train)
		if err != nil {
			return res, err
		}
		offPhase := cfg.phase()
		offPhase.Wire = iotssp.WireOff
		offPhase.Seed = cfg.Seed + 223
		_, _, offVerdicts, _, offLost := runWirePhase(offCl.Addr(), w, offPhase, nil)
		offMetrics := &MetricsSnapshot{Experiment: "replicated-wire-off", Components: offCl.Snapshots()}
		offCl.Close()
		if offLost > 0 {
			return res, fmt.Errorf("wire-off twin lost %d verdicts with no failure injected", offLost)
		}
		for i := range offVerdicts {
			if !verdictsEqual(refVerdicts[i], offVerdicts[i]) {
				return res, fmt.Errorf("wire-off twin verdict %d differs from the single-replica reference (want bit-equal)", i)
			}
		}
		res.BytesPerVerdictOff = offMetrics.ComputeBytesPerVerdict(cfg.Requests)
		if res.BytesPerVerdict > 0 {
			res.WireGain = res.BytesPerVerdictOff / res.BytesPerVerdict
		}
		if cfg.MinWireGain > 0 && res.WireGain < cfg.MinWireGain {
			return res, fmt.Errorf("wire compression gain %.2fx (off %.1f B/verdict, %s %.1f B/verdict) below the required %.1fx",
				res.WireGain, res.BytesPerVerdictOff, cfg.Wire, res.BytesPerVerdict, cfg.MinWireGain)
		}
	}

	// Phase 4 — fan-out enrolment drives shard-scoped invalidation
	// exactly once.
	invSvc := cl.AuxService(cfg.CacheSize)
	shard, dependent, independent, err := checkShardScopedInvalidation(invSvc, cl, w, canary, canaryPrints)
	res.CanaryShard = shard
	res.DependentProbes = dependent
	res.IndependentProbes = independent
	if err != nil {
		return res, err
	}
	if shard != groupIdx {
		return res, fmt.Errorf("canary %q enrolled into shard %d, want the group shard %d (least-loaded routing)", canary, shard, groupIdx)
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
		if len(types) == 0 || types[len(types)-1] != canary {
			return res, fmt.Errorf("member %d missing the fanned-out canary %q: %v", j, canary, types)
		}
	}
	return res, nil
}

// latPercentiles sorts lats in place and returns (p50, p99).
func latPercentiles(lats []time.Duration) (time.Duration, time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2], lats[len(lats)*99/100]
}

// verdictsEqual compares two verdicts ignoring the connection-local
// line echo.
func verdictsEqual(a, b iotssp.Response) bool {
	a.Line, b.Line = 0, 0
	return reflect.DeepEqual(a, b)
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
	if r.BytesPerVerdict > 0 {
		fmt.Fprintf(&sb, "shard wire cost: %.1f bytes/verdict (steady state)\n", r.BytesPerVerdict)
	}
	if r.Wire != iotssp.WireOff && r.WireGain > 0 {
		fmt.Fprintf(&sb, "wire compression (%s): %.1fx fewer bytes/verdict than the plain wire (%.1f vs %.1f), dict hit rate %.1f%%\n",
			r.Wire, r.WireGain, r.BytesPerVerdict, r.BytesPerVerdictOff, 100*r.DictHitRate)
	}
	if r.Metrics != nil {
		fmt.Fprintf(&sb, "metrics: %s\n", r.Metrics.JSON())
	}
	return sb.String()
}
