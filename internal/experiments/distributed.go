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

// DistributedConfig parameterizes the distributed classifier-bank
// experiment: one logical ShardedBank whose shards are split between
// the service process and a shard server reached over the IoTSSP wire
// protocol, validated against an all-local twin. Load's zero fields
// default to 9 types (the next catalog type is the canary enrolment of
// the remote-invalidation check), 1024 requests per phase (long enough
// that the dictionary's one-time seeding misses amortize out of the
// steady-state bytes/verdict), 2 gateways with 8 requests in flight
// each, and batch 16. Load.CacheSize sizes the verdict cache of the
// invalidation phase only: the timed phases run uncached so every
// request exercises the bank — and therefore the wire — rather than
// the front cache.
type DistributedConfig struct {
	Load
	// Shards is the logical bank's shard count (0 means 2). One shard —
	// the one the least-loaded router will hand the canary enrolment,
	// index Types mod Shards — is served remotely; the rest stay
	// in-process.
	Shards int
	// Wire selects the remote shard's wire toward its shard server (the
	// gateway pools always speak the plain identify wire). When it is
	// on, the run adds an uncompressed twin phase and reports the
	// measured gain.
	Wire iotssp.WireMode
	// MinWireGain, with Wire on, fails the run unless the uncompressed
	// twin's steady-state bytes/verdict divided by the compressed run's
	// reaches it (0 reports the gain without asserting).
	MinWireGain float64
}

func (c DistributedConfig) withDefaults() (DistributedConfig, error) {
	c.Load = c.Load.withDefaults(Load{Types: 9, Requests: 1024, Gateways: 2, InFlight: 8, BatchSize: 16})
	if c.Types < 2 || c.Types >= len(devices.Names()) {
		return c, fmt.Errorf("experiments: distributed Types must be in [2, %d) to leave a canary type", len(devices.Names()))
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.Shards < 1 || c.Shards > c.Types {
		return c, fmt.Errorf("experiments: distributed Shards must be in [1, Types]")
	}
	return c, nil
}

// DistributedResult is the outcome of the distributed-bank experiment.
type DistributedResult struct {
	EnrolledTypes int
	Shards        int
	// RemoteShard is the shard index served across the wire.
	RemoteShard int
	Requests    int
	Gateways    int

	// BaselinePerSec is the all-local sharded bank; DistributedPerSec
	// the same workload with one shard behind the wire (including the
	// mid-run shard restart). Overhead is baseline/distributed — how
	// much the wire hop costs on one machine (on real fleets the remote
	// shard brings its own cores).
	BaselinePerSec    float64
	DistributedPerSec float64
	Overhead          float64

	// Mismatches counts verdicts that differed from the all-local
	// baseline (the bit-equality assertion fails unless zero). Lost
	// counts requests that returned no verdict.
	Mismatches int
	Lost       int

	// ShardKilled reports whether the remote shard was stopped mid-run;
	// Restarted whether it came back.
	ShardKilled bool
	Restarted   bool

	// P50/P99 are the distributed phase's request latencies.
	P50, P99 time.Duration

	// WireCost is the distributed phase's shard-plane wire cost and,
	// with compression on, its gain over an uncompressed twin phase.
	WireCost

	// Remote-enrolment invalidation check: enrolling the canary through
	// the logical bank must route it to the remote shard (CanaryShard ==
	// RemoteShard), and its version bump — observed over the wire — must
	// invalidate exactly the dependent verdicts.
	CanaryType        string
	CanaryShard       int
	DependentProbes   int
	IndependentProbes int

	// Metrics is the run's single JSON stats snapshot.
	Metrics *MetricsSnapshot
}

// RunDistributed validates and measures the cross-process classifier
// bank:
//
//   - Baseline: the all-local ShardedBank behind one verdict server —
//     the PR 3 configuration.
//   - Distributed: an identically trained partition where one shard
//     (index Types mod Shards) lives behind a shard-serving IoTSSP
//     replica and is reached through a RemoteShard client. The same
//     workload must produce bit-equal verdicts. A third of the way in,
//     the shard server is killed and revived; the remote shard's
//     reconnect/retry machinery must carry every request across the
//     restart — zero lost verdicts, still bit-equal.
//   - Remote invalidation: a fresh verdict cache is warmed over the
//     mixed bank, the canary type is enrolled through the cluster's
//     control plane (least-loaded routing hands it to the remote
//     shard), and the version bump observed over the wire must
//     invalidate exactly the dependent cache entries, counted by the
//     Invalidations counter.
//
// Both serving stacks are assembled through controlplane.Cluster, and
// both timed phases run with the verdict cache disabled so every
// request crosses the bank (and the wire), not the front cache.
func RunDistributed(cfg DistributedConfig) (*DistributedResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	w, err := buildWorkload(cfg.Load, 0xf5)
	if err != nil {
		return nil, err
	}

	remoteIdx := cfg.Types % cfg.Shards
	res := &DistributedResult{
		EnrolledTypes: cfg.Types,
		Shards:        cfg.Shards,
		RemoteShard:   remoteIdx,
		Requests:      cfg.Requests,
		Gateways:      cfg.Gateways,
		WireCost:      WireCost{Wire: cfg.Wire},
		CanaryType:    w.canary,
		CanaryShard:   -1,
	}

	// Phase 1 — all-local baseline. Training is deterministic in
	// (config, data), so the two clusters' verdicts must agree
	// bit-for-bit.
	baseCl, err := controlplane.Assemble(cfg.cluster(-1), topology(w.train, cfg.Shards, -1, 0), w.train)
	if err != nil {
		return nil, err
	}
	baseTypes := baseCl.Bank().Types()
	base := replay(wirePools(baseCl.Addr(), cfg.Load, cfg.Seed), w, cfg.InFlight)
	baseCl.Close()
	if base.lost > 0 {
		return nil, fmt.Errorf("baseline phase lost %d verdicts with no failure injected", base.lost)
	}
	res.BaselinePerSec = base.perSec

	// mixed assembles the mixed local/remote cluster; the remote
	// shard's deep retry loop rides a shard-server restart.
	mixed := func(seed int64, wire iotssp.WireMode) (*controlplane.Cluster, error) {
		cc := cfg.cluster(-1)
		cc.Shard = iotssp.RemoteShardConfig{
			RetryBackoff: 2 * time.Millisecond,
			MaxBackoff:   50 * time.Millisecond,
			MaxRetries:   40,
			Seed:         seed,
			Wire:         wire,
		}
		return controlplane.Assemble(cc, topology(w.train, cfg.Shards, remoteIdx, 1), w.train)
	}

	// Phase 2 — the mixed local/remote cluster, with the shard restart
	// drill.
	cl, err := mixed(cfg.Seed+101, cfg.Wire)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if got := cl.Bank().Types(); !reflect.DeepEqual(got, baseTypes) {
		return nil, fmt.Errorf("mixed bank reassembled order %v, want %v", got, baseTypes)
	}

	shardRep := cl.Member(remoteIdx, 0)
	ph := replay(wirePools(cl.Addr(), cfg.Load, cfg.Seed), w, cfg.InFlight, drill{after: cfg.Requests / 3, fn: func() {
		res.ShardKilled = true
		shardRep.Stop()
		time.Sleep(100 * time.Millisecond)
		res.Restarted = shardRep.Start() == nil
	}})
	res.DistributedPerSec = ph.perSec
	if res.DistributedPerSec > 0 {
		res.Overhead = res.BaselinePerSec / res.DistributedPerSec
	}
	res.Lost = ph.lost
	res.Mismatches = ph.mismatches(base)
	res.P50, res.P99 = ph.p50, ph.p99
	res.Metrics = ph.metrics("distributed", cl)
	res.BytesPerVerdict = res.Metrics.ComputeBytesPerVerdict(cfg.Requests)

	if ph.lost > 0 {
		return res, fmt.Errorf("distributed bank lost %d of %d verdicts across the shard restart (want zero: the remote shard must retry through it)", ph.lost, cfg.Requests)
	}
	if res.Mismatches > 0 {
		return res, fmt.Errorf("%d of %d distributed verdicts differ from the all-local baseline (want bit-equal)", res.Mismatches, cfg.Requests)
	}
	if !res.Restarted {
		return res, fmt.Errorf("killed shard server failed to restart")
	}

	// Wire-off twin — with compression on, price the same workload on
	// the plain wire against the all-local baseline's verdicts.
	if cfg.Wire != iotssp.WireOff {
		twin, err := mixed(cfg.Seed+103, iotssp.WireOff)
		if err != nil {
			return res, err
		}
		if err := res.priceTwin(twin, w, cfg.Load, cfg.Seed+103, res.Metrics, base, cfg.MinWireGain); err != nil {
			return res, err
		}
	}

	// Phase 3 — remote enrolment drives shard-scoped cache
	// invalidation.
	invSvc := cl.AuxService(cfg.CacheSize)
	shard, dependent, independent, err := checkShardScopedInvalidation(invSvc, cl, w)
	res.CanaryShard = shard
	res.DependentProbes = dependent
	res.IndependentProbes = independent
	if err != nil {
		return res, err
	}
	if shard != remoteIdx {
		return res, fmt.Errorf("canary %q enrolled into shard %d, want the remote shard %d (least-loaded routing)", w.canary, shard, remoteIdx)
	}
	if got := cl.MemberBank(remoteIdx, 0).Version(); got != cl.Bank().Versions()[remoteIdx] {
		return res, fmt.Errorf("remote version cache (%d) diverged from the served shard (%d)", cl.Bank().Versions()[remoteIdx], got)
	}
	return res, nil
}

// RenderDistributed formats the distributed-bank experiment for the
// terminal.
func (r *DistributedResult) RenderDistributed() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Distributed classifier bank — %d types over %d shards (shard %d remote), %d requests, %d gateways\n",
		r.EnrolledTypes, r.Shards, r.RemoteShard, r.Requests, r.Gateways)
	fmt.Fprintf(&sb, "%-36s %12s\n", "mode", "requests/s")
	fmt.Fprintf(&sb, "%-36s %12.1f\n", "all-local sharded bank", r.BaselinePerSec)
	fmt.Fprintf(&sb, "%-36s %12.1f  (%.2fx wire overhead)\n", "one shard across the wire", r.DistributedPerSec, r.Overhead)
	fmt.Fprintf(&sb, "verdicts: %d mismatches vs baseline (bit-equal), %d lost\n", r.Mismatches, r.Lost)
	if r.ShardKilled {
		revived := "left down"
		if r.Restarted {
			revived = "revived; retries carried every request across the outage"
		}
		fmt.Fprintf(&sb, "failure drill: remote shard killed mid-run (%s)\n", revived)
	}
	fmt.Fprintf(&sb, "latency p50 %s  p99 %s\n", r.P50, r.P99)
	r.WireCost.render(&sb)
	if r.CanaryShard >= 0 {
		fmt.Fprintf(&sb, "remote invalidation: enrolling %q landed on remote shard %d and invalidated %d dependent verdicts, kept %d\n",
			r.CanaryType, r.CanaryShard, r.DependentProbes, r.IndependentProbes)
	}
	if r.Metrics != nil {
		fmt.Fprintf(&sb, "metrics: %s\n", r.Metrics.JSON())
	}
	return sb.String()
}
