package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
	"repro/internal/ml"
	"repro/internal/vulndb"
)

// DistributedConfig parameterizes the distributed classifier-bank
// experiment: one logical ShardedBank whose shards are split between
// the service process and a shard server reached over the IoTSSP wire
// protocol, validated against an all-local twin.
type DistributedConfig struct {
	// Types is the number of enrolled device-types (0 means 9). It must
	// stay below the full catalog: the next catalog type is the canary
	// enrolment for the remote-invalidation check.
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
	// index Types mod Shards — is served remotely; the rest stay
	// in-process.
	Shards int
	// BatchSize and Workers tune the front server's dispatcher as in
	// ServiceConfig. CacheSize sizes the verdict cache of the
	// invalidation phase (0 selects the default); the two timed
	// phases always run uncached so every request exercises the bank —
	// and therefore the wire — rather than the front cache.
	BatchSize int
	CacheSize int
	Workers   int
	// NoKill disables the mid-run remote-shard restart drill; NoRestart
	// leaves the killed shard down (which also skips the enrolment
	// phase — the canary's shard would be unreachable).
	NoKill    bool
	NoRestart bool
	// Wire selects the v4 wire compression for every client transport in
	// the run — the gateway pools toward the front server and the remote
	// shard toward its shard server. When it is on, the run adds an
	// uncompressed twin phase and reports the measured gain.
	Wire iotssp.WireMode
	// MinWireGain, with Wire on, fails the run unless the uncompressed
	// twin's steady-state bytes/verdict divided by the compressed run's
	// reaches it (0 reports the gain without asserting).
	MinWireGain float64
	// Seed drives dataset generation, training and workload sampling.
	Seed int64
}

func (c DistributedConfig) withDefaults() (DistributedConfig, error) {
	if c.Types == 0 {
		c.Types = 9
	}
	if c.Types < 2 || c.Types >= len(devices.Names()) {
		return c, fmt.Errorf("experiments: distributed Types must be in [2, %d) to leave a canary type", len(devices.Names()))
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
		return c, fmt.Errorf("experiments: distributed Shards must be in [1, Types]")
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
func (c DistributedConfig) phase() wirePhase {
	return wirePhase{Requests: c.Requests, Gateways: c.Gateways, InFlight: c.InFlight, Seed: c.Seed, Wire: c.Wire}
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

	// BytesPerVerdict is the distributed phase's measured shard-plane
	// steady-state wire cost per verdict (both directions of the remote
	// shard's transport, off the lineconn byte counters, handshake and
	// state-transfer bytes carved out).
	BytesPerVerdict float64

	// Wire is the run's wire-compression mode. With it on, the run adds
	// an uncompressed twin phase: BytesPerVerdictOff is that twin's
	// cost, WireGain the off/on ratio (how many times fewer bytes each
	// verdict costs compressed), and DictHitRate the fingerprint
	// dictionaries' hit rate in the compressed phase.
	Wire               iotssp.WireMode
	BytesPerVerdictOff float64
	WireGain           float64
	DictHitRate        float64

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

// buildWireWorkload generates the dataset, training partition and
// replay workload shared by the distributed and replicated experiments
// (the fleet experiment's shapes, reused): `types` enrolled types with
// `runs` training prints each, `probeModels` held-out probes per type,
// a `requests`-long replay schedule, and the next catalog type as the
// canary enrolment.
func buildWireWorkload(types, runs, probeModels, requests int, seed int64) (map[string][]*fingerprint.Fingerprint, *serviceWorkload, string, []*fingerprint.Fingerprint, error) {
	env := devices.DefaultEnv()
	ds, err := devices.GenerateDataset(env, seed, runs+probeModels)
	if err != nil {
		return nil, nil, "", nil, err
	}
	names := devices.Names()[:types]
	canary := devices.Names()[types]
	train := make(map[string][]*fingerprint.Fingerprint, len(names))
	var probes []*fingerprint.Fingerprint
	for _, name := range names {
		prints := ds[name]
		train[name] = prints[:runs]
		probes = append(probes, prints[runs:]...)
	}
	w := &serviceWorkload{probes: probes}
	w.model = make([]int, requests)
	w.macs = make([]string, requests)
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := range w.model {
		state = state*6364136223846793005 + 1442695040888963407
		w.model[i] = int(state>>33) % len(probes)
		w.macs[i] = fmt.Sprintf("02:f5:%02x:%02x:%02x:%02x", (i>>24)&0xff, (i>>16)&0xff, (i>>8)&0xff, i&0xff)
	}
	return train, w, canary, ds[canary][:runs], nil
}

// wirePhase shapes one replayed load phase: how many requests, over how
// many gateway clients with how many in-flight slots each, at which
// wire-compression mode.
type wirePhase struct {
	Requests, Gateways, InFlight int
	Seed                         int64
	Wire                         iotssp.WireMode
}

// wireDrill is one mid-run intervention: Fn fires once the request
// cursor crosses After. Drills run in order on one goroutine, so a
// later drill never overtakes an earlier one.
type wireDrill struct {
	After int64
	Fn    func()
}

// third returns the conventional single-drill schedule: fire a third of
// the way into the phase.
func (c wirePhase) third(fn func()) []wireDrill {
	return []wireDrill{{After: int64(c.Requests / 3), Fn: fn}}
}

// runWirePhase replays the workload against one verdict server,
// recording every request's verdict in request order, and running each
// drill as the cursor crosses its threshold.
func runWirePhase(addr string, w *serviceWorkload, cfg wirePhase, drills []wireDrill) (time.Duration, []time.Duration, []iotssp.Response, []gateway.PoolStats, int) {
	pools := make([]*gateway.Pool, cfg.Gateways)
	for g := range pools {
		pools[g] = gateway.NewPool(addr, gateway.PoolConfig{
			Conns:        2,
			Timeout:      30 * time.Second,
			MaxRetries:   3,
			RetryBackoff: 2 * time.Millisecond,
			Seed:         cfg.Seed + int64(g),
			Wire:         cfg.Wire,
		})
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()

	var cursor atomic.Int64
	var lost atomic.Int64
	verdicts := make([]iotssp.Response, cfg.Requests)
	drillDone := make(chan struct{})
	if len(drills) > 0 {
		go func() {
			defer close(drillDone)
			for _, d := range drills {
				for cursor.Load() < d.After {
					time.Sleep(200 * time.Microsecond)
				}
				d.Fn()
			}
		}()
	} else {
		close(drillDone)
	}

	lats := make([][]time.Duration, cfg.Gateways*cfg.InFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < cfg.Gateways; g++ {
		for k := 0; k < cfg.InFlight; k++ {
			wg.Add(1)
			go func(g, slot int) {
				defer wg.Done()
				pool := pools[g]
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(w.model) {
						return
					}
					t0 := time.Now()
					resp, err := pool.Identify(context.Background(), w.macs[i], w.probes[w.model[i]])
					if err != nil || resp.MAC != w.macs[i] {
						lost.Add(1)
						continue
					}
					verdicts[i] = resp
					lats[slot] = append(lats[slot], time.Since(t0))
				}
			}(g, g*cfg.InFlight+k)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	<-drillDone

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	poolStats := make([]gateway.PoolStats, len(pools))
	for g, p := range pools {
		poolStats[g] = p.Counters()
	}
	return elapsed, all, verdicts, poolStats, int(lost.Load())
}

// mixedTopology deals the training set round-robin over shards
// partitions and serves exactly one — remoteIdx, with members replicas —
// across the wire.
func mixedTopology(train map[string][]*fingerprint.Fingerprint, shards, remoteIdx, members int) controlplane.Topology {
	names := make([]string, 0, len(train))
	for name := range train {
		names = append(names, name)
	}
	parts := make([]controlplane.PartitionSpec, 0, shards)
	for s, types := range controlplane.RoundRobin(names, shards) {
		spec := controlplane.PartitionSpec{Types: types, Local: s != remoteIdx}
		if s == remoteIdx {
			spec.Members = members
		}
		parts = append(parts, spec)
	}
	return controlplane.Topology{Partitions: parts}
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
	train, w, canary, canaryPrints, err := buildWireWorkload(cfg.Types, cfg.Runs, cfg.ProbeModels, cfg.Requests, cfg.Seed)
	if err != nil {
		return nil, err
	}
	coreCfg := core.BankConfig{
		Forest: ml.ForestConfig{Trees: cfg.Trees},
		Seed:   cfg.Seed,
	}

	remoteIdx := cfg.Types % cfg.Shards
	res := &DistributedResult{
		EnrolledTypes: cfg.Types,
		Shards:        cfg.Shards,
		RemoteShard:   remoteIdx,
		Requests:      cfg.Requests,
		Gateways:      cfg.Gateways,
		Wire:          cfg.Wire,
		CanaryType:    canary,
		CanaryShard:   -1,
	}
	scfg := iotssp.ServerConfig{
		BatchSize: cfg.BatchSize,
		Workers:   cfg.Workers,
	}

	// Phase 1 — all-local baseline. Training is deterministic in
	// (config, data), so the two clusters' verdicts must agree
	// bit-for-bit.
	baseCl, err := controlplane.Assemble(controlplane.ClusterConfig{
		Core:      coreCfg,
		Server:    scfg,
		CacheSize: -1,
		DB:        vulndb.Seeded(),
	}, localTopology(train, cfg.Shards), train)
	if err != nil {
		return nil, err
	}
	baseTypes := baseCl.Bank().Types()
	baseElapsed, _, baseVerdicts, _, baseLost := runWirePhase(baseCl.Addr(), w, cfg.phase(), nil)
	baseCl.Close()
	if baseLost > 0 {
		return nil, fmt.Errorf("baseline phase lost %d verdicts with no failure injected", baseLost)
	}
	res.BaselinePerSec = float64(cfg.Requests) / baseElapsed.Seconds()

	// Phase 2 — the mixed local/remote cluster, with the shard restart
	// drill.
	cl, err := controlplane.Assemble(controlplane.ClusterConfig{
		Core:   coreCfg,
		Server: scfg,
		Shard: iotssp.RemoteShardConfig{
			RetryBackoff: 2 * time.Millisecond,
			MaxBackoff:   50 * time.Millisecond,
			MaxRetries:   40,
			Seed:         cfg.Seed + 101,
			Wire:         cfg.Wire,
		},
		CacheSize: -1,
		DB:        vulndb.Seeded(),
	}, mixedTopology(train, cfg.Shards, remoteIdx, 1), train)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if got := cl.Bank().Types(); !reflect.DeepEqual(got, baseTypes) {
		return nil, fmt.Errorf("mixed bank reassembled order %v, want %v", got, baseTypes)
	}

	var drills []wireDrill
	if !cfg.NoKill {
		shardRep := cl.Member(remoteIdx, 0)
		drills = cfg.phase().third(func() {
			res.ShardKilled = true
			shardRep.Stop()
			if cfg.NoRestart {
				return
			}
			time.Sleep(100 * time.Millisecond)
			if err := shardRep.Start(); err == nil {
				res.Restarted = true
			}
		})
	}
	elapsed, lats, verdicts, poolStats, lost := runWirePhase(cl.Addr(), w, cfg.phase(), drills)
	res.DistributedPerSec = float64(cfg.Requests) / elapsed.Seconds()
	if res.DistributedPerSec > 0 {
		res.Overhead = res.BaselinePerSec / res.DistributedPerSec
	}
	res.Lost = lost

	for i := range verdicts {
		if !verdictsEqual(baseVerdicts[i], verdicts[i]) {
			res.Mismatches++
		}
	}
	res.P50, res.P99 = latPercentiles(lats)
	res.Metrics = &MetricsSnapshot{Experiment: "distributed", Components: cl.Snapshots()}
	for _, ps := range poolStats {
		res.Metrics.Components = append(res.Metrics.Components, ps.Snapshot())
	}
	res.BytesPerVerdict = res.Metrics.ComputeBytesPerVerdict(cfg.Requests)

	if lost > 0 {
		return res, fmt.Errorf("distributed bank lost %d of %d verdicts across the shard restart (want zero: the remote shard must retry through it)", lost, cfg.Requests)
	}
	if res.Mismatches > 0 {
		return res, fmt.Errorf("%d of %d distributed verdicts differ from the all-local baseline (want bit-equal)", res.Mismatches, cfg.Requests)
	}
	if res.ShardKilled && !cfg.NoRestart && !res.Restarted {
		return res, fmt.Errorf("killed shard server failed to restart")
	}

	// Wire-off twin — with compression on, replay the same workload
	// against an identically trained mixed cluster speaking the plain
	// wire (no drills: the twin prices the steady state). Its verdicts
	// must stay bit-equal to the baseline — compression is lossless or
	// it is a bug — and the off/on bytes-per-verdict ratio is the gain
	// MinWireGain asserts.
	if cfg.Wire != iotssp.WireOff {
		res.DictHitRate = res.Metrics.DictHitRate
		offCl, err := controlplane.Assemble(controlplane.ClusterConfig{
			Core:   coreCfg,
			Server: scfg,
			Shard: iotssp.RemoteShardConfig{
				RetryBackoff: 2 * time.Millisecond,
				MaxBackoff:   50 * time.Millisecond,
				MaxRetries:   40,
				Seed:         cfg.Seed + 103,
			},
			CacheSize: -1,
			DB:        vulndb.Seeded(),
		}, mixedTopology(train, cfg.Shards, remoteIdx, 1), train)
		if err != nil {
			return res, err
		}
		offPhase := cfg.phase()
		offPhase.Wire = iotssp.WireOff
		offPhase.Seed = cfg.Seed + 103
		_, _, offVerdicts, _, offLost := runWirePhase(offCl.Addr(), w, offPhase, nil)
		offMetrics := &MetricsSnapshot{Experiment: "distributed-wire-off", Components: offCl.Snapshots()}
		offCl.Close()
		if offLost > 0 {
			return res, fmt.Errorf("wire-off twin lost %d verdicts with no failure injected", offLost)
		}
		for i := range offVerdicts {
			if !verdictsEqual(baseVerdicts[i], offVerdicts[i]) {
				return res, fmt.Errorf("wire-off twin verdict %d differs from the baseline (want bit-equal)", i)
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

	// Phase 3 — remote enrolment drives shard-scoped cache
	// invalidation. Skipped when the drill left the remote shard down.
	if res.ShardKilled && cfg.NoRestart {
		return res, nil
	}
	invSvc := cl.AuxService(cfg.CacheSize)
	shard, dependent, independent, err := checkShardScopedInvalidation(invSvc, cl, w, canary, canaryPrints)
	res.CanaryShard = shard
	res.DependentProbes = dependent
	res.IndependentProbes = independent
	if err != nil {
		return res, err
	}
	if shard != remoteIdx {
		return res, fmt.Errorf("canary %q enrolled into shard %d, want the remote shard %d (least-loaded routing)", canary, shard, remoteIdx)
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
	if r.BytesPerVerdict > 0 {
		fmt.Fprintf(&sb, "shard wire cost: %.1f bytes/verdict (steady state)\n", r.BytesPerVerdict)
	}
	if r.Wire != iotssp.WireOff && r.WireGain > 0 {
		fmt.Fprintf(&sb, "wire compression (%s): %.1fx fewer bytes/verdict than the plain wire (%.1f vs %.1f), dict hit rate %.1f%%\n",
			r.Wire, r.WireGain, r.BytesPerVerdict, r.BytesPerVerdictOff, 100*r.DictHitRate)
	}
	if r.CanaryShard >= 0 {
		fmt.Fprintf(&sb, "remote invalidation: enrolling %q landed on remote shard %d and invalidated %d dependent verdicts, kept %d\n",
			r.CanaryType, r.CanaryShard, r.DependentProbes, r.IndependentProbes)
	}
	if r.Metrics != nil {
		fmt.Fprintf(&sb, "metrics: %s\n", r.Metrics.JSON())
	}
	return sb.String()
}
