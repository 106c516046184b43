package experiments

import (
	"context"
	"fmt"
	"sort"
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

// FleetConfig parameterizes the replicated-fleet experiment: a
// sharded classifier bank served by several IoTSSP replicas behind
// health-aware, consistent-hashing gateway clients, with one backend
// killed (and revived) mid-run.
type FleetConfig struct {
	// Types is the number of enrolled device-types (0 means 9). It must
	// stay below the full catalog: the next catalog type is held out as
	// the canary enrolment for the shard-scoped cache-invalidation
	// check.
	Types int
	// Runs is the number of training fingerprints per type (0 means 8).
	Runs int
	// Trees is the per-type forest size (0 means 100).
	Trees int
	// ProbeModels is the number of distinct probe fingerprints per type
	// the fleet workload draws from (0 means 2).
	ProbeModels int
	// Requests is the total identification requests replayed per phase
	// (0 means 512).
	Requests int
	// Gateways is the number of concurrent gateway clients (0 means 4),
	// each with its own FleetPool and health view.
	Gateways int
	// InFlight is each gateway's concurrent in-flight requests (0 means
	// 16).
	InFlight int
	// Shards is the classifier-bank shard count (0 means 2).
	Shards int
	// Backends is the replica count of the fleet phase (0 means 2). The
	// baseline phase always runs one backend over an unsharded bank —
	// the PR 2 service mode.
	Backends int
	// BatchSize, CacheSize and Workers tune the serving loop as in
	// ServiceConfig.
	BatchSize int
	CacheSize int
	Workers   int
	// NoKill disables the mid-run backend kill (the failover drill runs
	// by default whenever Backends > 1).
	NoKill bool
	// NoRestart leaves the killed backend down instead of reviving it at
	// two-thirds of the run.
	NoRestart bool
	// MinScaling, when positive, makes RunFleet fail unless fleet
	// throughput reaches MinScaling × the single-backend baseline.
	MinScaling float64
	// Seed drives dataset generation, training and workload sampling.
	Seed int64
}

func (c FleetConfig) withDefaults() (FleetConfig, error) {
	if c.Types == 0 {
		c.Types = 9
	}
	if c.Types < 2 || c.Types >= len(devices.Names()) {
		return c, fmt.Errorf("experiments: fleet Types must be in [2, %d) to leave a canary type", len(devices.Names()))
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
		c.Requests = 512
	}
	if c.Gateways == 0 {
		c.Gateways = 4
	}
	if c.InFlight == 0 {
		c.InFlight = 16
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.Backends == 0 {
		c.Backends = 2
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.CacheSize == 0 {
		c.CacheSize = iotssp.DefaultCacheSize
	}
	return c, nil
}

// FleetResult is the outcome of the replicated-fleet experiment.
type FleetResult struct {
	EnrolledTypes int
	Shards        int
	Backends      int
	Requests      int
	Gateways      int

	// BaselinePerSec is the single-backend PR 2 service mode (unsharded
	// bank, one replica, batching + warm cache). FleetPerSec is the
	// sharded multi-backend fleet on the same workload — including the
	// mid-run backend kill. Scaling is their ratio.
	BaselinePerSec float64
	FleetPerSec    float64
	Scaling        float64

	// KilledBackend is the replica stopped mid-run (-1 when the drill
	// was disabled); Restarted reports whether it was revived.
	KilledBackend int
	Restarted     bool
	// Lost counts requests that returned no verdict — the zero-loss
	// assertion failed if this is nonzero. Failovers counts attempts
	// transparently re-routed to another replica.
	Lost      int
	Failovers uint64

	// CacheHitRate is the fleet phase's measured hit rate; P50/P99 its
	// request latencies.
	CacheHitRate float64
	P50, P99     time.Duration

	// Shard-scoped invalidation check: enrolling the canary type into
	// CanaryShard must invalidate exactly the cached verdicts depending
	// on that shard (DependentProbes) and keep every other one
	// (IndependentProbes).
	CanaryType        string
	CanaryShard       int
	DependentProbes   int
	IndependentProbes int

	// Metrics is the run's single JSON stats snapshot.
	Metrics *MetricsSnapshot
}

// buildFleetWorkload samples the training corpus and the shared
// workload; it also returns the canary type's training prints for the
// invalidation check.
func buildFleetWorkload(cfg FleetConfig) (map[string][]*fingerprint.Fingerprint, *serviceWorkload, string, []*fingerprint.Fingerprint, error) {
	env := devices.DefaultEnv()
	ds, err := devices.GenerateDataset(env, cfg.Seed, cfg.Runs+cfg.ProbeModels)
	if err != nil {
		return nil, nil, "", nil, err
	}
	names := devices.Names()[:cfg.Types]
	canary := devices.Names()[cfg.Types]
	train := make(map[string][]*fingerprint.Fingerprint, len(names))
	var probes []*fingerprint.Fingerprint
	for _, name := range names {
		prints := ds[name]
		train[name] = prints[:cfg.Runs]
		probes = append(probes, prints[cfg.Runs:]...)
	}

	w := &serviceWorkload{probes: probes}
	w.model = make([]int, cfg.Requests)
	w.macs = make([]string, cfg.Requests)
	state := uint64(cfg.Seed)*6364136223846793005 + 1442695040888963407
	for i := range w.model {
		state = state*6364136223846793005 + 1442695040888963407
		w.model[i] = int(state>>33) % len(probes)
		w.macs[i] = fmt.Sprintf("02:f2:%02x:%02x:%02x:%02x", (i>>24)&0xff, (i>>16)&0xff, (i>>8)&0xff, i&0xff)
	}
	return train, w, canary, ds[canary][:cfg.Runs], nil
}

// localTopology deals the training set's types round-robin over shards
// local partitions — the TrainSharded placement, assembled declaratively.
func localTopology(train map[string][]*fingerprint.Fingerprint, shards int) controlplane.Topology {
	names := make([]string, 0, len(train))
	for name := range train {
		names = append(names, name)
	}
	parts := make([]controlplane.PartitionSpec, 0, shards)
	for _, types := range controlplane.RoundRobin(names, shards) {
		parts = append(parts, controlplane.PartitionSpec{Types: types, Local: true})
	}
	return controlplane.Topology{Partitions: parts}
}

// runFleetPhase replays the workload through per-gateway FleetPools
// against the cluster's frontends, optionally killing (and reviving)
// one as the request cursor crosses a third (two-thirds) of the run.
// It returns the elapsed wall time, per-request latencies, each
// gateway's fleet-pool stats, the number of lost requests, and whether
// the killed frontend was revived.
func runFleetPhase(cl *controlplane.Cluster, w *serviceWorkload, cfg FleetConfig, kill int) (time.Duration, []time.Duration, []gateway.FleetPoolStats, int, bool) {
	addrs := cl.Addrs()
	pools := make([]*gateway.FleetPool, cfg.Gateways)
	for g := range pools {
		pools[g] = gateway.NewFleetPool(addrs, gateway.FleetPoolConfig{
			Pool: gateway.PoolConfig{
				Conns:        2,
				MaxRetries:   2,
				RetryBackoff: 2 * time.Millisecond,
				Seed:         cfg.Seed + int64(g),
			},
			FailureThreshold: 2,
			ProbeBackoff:     5 * time.Millisecond,
			MaxProbeBackoff:  100 * time.Millisecond,
		})
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()

	var cursor atomic.Int64
	var lost atomic.Int64
	restarted := false
	killDone := make(chan struct{})
	if kill >= 0 {
		go func() {
			defer close(killDone)
			killAt := int64(cfg.Requests / 3)
			reviveAt := int64(2 * cfg.Requests / 3)
			for cursor.Load() < killAt {
				time.Sleep(200 * time.Microsecond)
			}
			cl.Frontend(kill).Stop()
			if cfg.NoRestart {
				return
			}
			for cursor.Load() < reviveAt {
				time.Sleep(200 * time.Microsecond)
			}
			if err := cl.Frontend(kill).Start(); err == nil {
				restarted = true
			}
		}()
	} else {
		close(killDone)
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
					lats[slot] = append(lats[slot], time.Since(t0))
				}
			}(g, g*cfg.InFlight+k)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	<-killDone

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	poolStats := make([]gateway.FleetPoolStats, len(pools))
	for g, p := range pools {
		poolStats[g] = p.Counters()
	}
	return elapsed, all, poolStats, int(lost.Load()), restarted
}

// warmFleetCache pushes every distinct probe model through one backend
// so the shared verdict cache is warm before a timed phase.
func warmFleetCache(addr string, w *serviceWorkload, seed int64) error {
	warm := gateway.NewPool(addr, gateway.PoolConfig{Conns: 2, Seed: seed})
	defer warm.Close()
	for i, fp := range w.probes {
		if _, err := warm.Identify(context.Background(), fmt.Sprintf("02:f3:00:00:00:%02x", i), fp); err != nil {
			return fmt.Errorf("warming cache: %w", err)
		}
	}
	return nil
}

// checkShardScopedInvalidation enrolls the canary type through the
// cluster's control plane and verifies with cache counters that exactly
// the cached verdicts depending on the enrolled shard were invalidated.
// Returns (shard, dependent, independent).
func checkShardScopedInvalidation(svc *iotssp.Service, cl *controlplane.Cluster, w *serviceWorkload, canary string, prints []*fingerprint.Fingerprint) (int, int, int, error) {
	bank := cl.Bank()
	// Distinct probe fingerprints only: device setup runs can repeat
	// bit-identically, and duplicates would share one cache entry and
	// double-count in the expectations below.
	var probes []*fingerprint.Fingerprint
	seenFP := make(map[uint64]bool)
	for _, fp := range w.probes {
		if h := fp.Hash(); !seenFP[h] {
			seenFP[h] = true
			probes = append(probes, fp)
		}
	}

	// Record each probe's pre-enrolment shard dependencies and make
	// sure its verdict is cached.
	deps := make([][]int, len(probes))
	for i, fp := range probes {
		res := bank.Identify(fp)
		if !res.Known {
			deps[i] = nil // unknown verdicts depend on every shard
		} else {
			seen := make(map[int]bool)
			for _, name := range res.Accepted {
				if s, ok := bank.ShardOf(name); ok && !seen[s] {
					seen[s] = true
					deps[i] = append(deps[i], s)
				}
			}
		}
		if resp := svc.Identify("02:f4:00:00:00:01", fp); resp.Error != "" {
			return 0, 0, 0, fmt.Errorf("pre-enroll probe %d: %s", i, resp.Error)
		}
	}
	st0 := svc.CacheStats()

	if err := cl.Enroll(canary, prints); err != nil {
		return 0, 0, 0, fmt.Errorf("enrolling canary %q: %w", canary, err)
	}
	shard, ok := bank.ShardOf(canary)
	if !ok {
		return 0, 0, 0, fmt.Errorf("canary %q has no shard after enrolment", canary)
	}

	dependent, independent := 0, 0
	for i, fp := range probes {
		dep := deps[i] == nil // unknown verdict: every shard
		for _, s := range deps[i] {
			if s == shard {
				dep = true
			}
		}
		if dep {
			dependent++
		} else {
			independent++
		}
		svc.Identify("02:f4:00:00:00:02", fp)
	}
	st1 := svc.CacheStats()
	if got := st1.Hits - st0.Hits; got != uint64(independent) {
		return shard, dependent, independent, fmt.Errorf(
			"shard-scoped invalidation violated: %d cache hits after enrolling into shard %d, want %d (verdicts on other shards must survive)",
			got, shard, independent)
	}
	if got := st1.Misses - st0.Misses; got != uint64(dependent) {
		return shard, dependent, independent, fmt.Errorf(
			"shard-scoped invalidation violated: %d cache misses after enrolling into shard %d, want %d (exactly the dependent verdicts recompute)",
			got, shard, dependent)
	}
	if got := st1.Invalidations - st0.Invalidations; got != uint64(dependent) {
		return shard, dependent, independent, fmt.Errorf(
			"shard-scoped invalidation violated: %d invalidations, want %d", got, dependent)
	}
	return shard, dependent, independent, nil
}

// RunFleet measures the replicated, sharded IoT Security Service under
// the fleet workload and drills its failure story:
//
//   - Baseline: the PR 2 single-backend service mode — one frontend over
//     an unsharded bank, micro-batching dispatcher, warm verdict cache.
//   - Fleet: the same workload against Backends frontends of one shared
//     service over a Shards-shard bank, routed by per-gateway
//     consistent-hashing FleetPools. A third of the way in, one backend
//     is killed; two-thirds in, it is revived and probed back into
//     rotation. Every request must still produce a verdict (failed
//     attempts retry onto healthy replicas): Lost must be zero.
//   - Shard-scoped invalidation: after the run, a canary type is
//     enrolled into one shard and cache counters must show exactly the
//     dependent verdicts invalidated.
//
// Both serving stacks are assembled through controlplane.Cluster.
// RunFleet returns an error if verdicts were lost, if the invalidation
// counters do not match, or if MinScaling > 0 and the fleet failed to
// scale past it.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	train, w, canary, canaryPrints, err := buildFleetWorkload(cfg)
	if err != nil {
		return nil, err
	}

	res := &FleetResult{
		EnrolledTypes: cfg.Types,
		Shards:        cfg.Shards,
		Backends:      cfg.Backends,
		Requests:      cfg.Requests,
		Gateways:      cfg.Gateways,
		KilledBackend: -1,
		CanaryType:    canary,
	}
	coreCfg := core.BankConfig{Forest: ml.ForestConfig{Trees: cfg.Trees}, Seed: cfg.Seed}
	scfg := iotssp.ServerConfig{
		BatchSize: cfg.BatchSize,
		Workers:   cfg.Workers,
	}

	// Phase 1 — single-backend baseline (PR 2 service mode).
	baseCl, err := controlplane.Assemble(controlplane.ClusterConfig{
		Core:      coreCfg,
		Server:    scfg,
		CacheSize: cfg.CacheSize,
		DB:        vulndb.Seeded(),
	}, localTopology(train, 1), train)
	if err != nil {
		return nil, err
	}
	if err := warmFleetCache(baseCl.Addr(), w, cfg.Seed); err != nil {
		baseCl.Close()
		return nil, err
	}
	baseElapsed, _, _, baseLost, _ := runFleetPhase(baseCl, w, cfg, -1)
	baseCl.Close()
	if baseLost > 0 {
		return nil, fmt.Errorf("baseline phase lost %d verdicts with no failure injected", baseLost)
	}
	res.BaselinePerSec = float64(cfg.Requests) / baseElapsed.Seconds()

	// Phase 2 — the replicated fleet over the sharded bank, with the
	// mid-run kill.
	cl, err := controlplane.Assemble(controlplane.ClusterConfig{
		Core:      coreCfg,
		Server:    scfg,
		CacheSize: cfg.CacheSize,
		Frontends: cfg.Backends,
		DB:        vulndb.Seeded(),
	}, localTopology(train, cfg.Shards), train)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	svc := cl.Service()
	if err := warmFleetCache(cl.Addr(), w, cfg.Seed); err != nil {
		return nil, err
	}
	warmStats := svc.CacheStats()

	kill := -1
	if !cfg.NoKill && cfg.Backends > 1 {
		kill = cfg.Backends - 1
	}
	elapsed, lats, poolStats, lost, restarted := runFleetPhase(cl, w, cfg, kill)
	res.FleetPerSec = float64(cfg.Requests) / elapsed.Seconds()
	res.Scaling = res.FleetPerSec / res.BaselinePerSec
	res.KilledBackend = kill
	res.Restarted = restarted
	res.Lost = lost
	for _, ps := range poolStats {
		res.Failovers += ps.Failovers
	}

	c := svc.CacheStats()
	served := (c.Hits + c.Shared) - (warmStats.Hits + warmStats.Shared)
	computed := c.Misses - warmStats.Misses
	if served+computed > 0 {
		res.CacheHitRate = float64(served) / float64(served+computed)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		res.P50 = lats[len(lats)/2]
		res.P99 = lats[len(lats)*99/100]
	}
	res.Metrics = &MetricsSnapshot{Experiment: "fleet", Components: cl.Snapshots()}
	for _, ps := range poolStats {
		res.Metrics.Components = append(res.Metrics.Components, ps.Snapshot())
	}

	if lost > 0 {
		return res, fmt.Errorf("fleet lost %d of %d verdicts across the backend kill (want zero: failed requests must retry onto healthy replicas)", lost, cfg.Requests)
	}
	if kill >= 0 && res.Failovers == 0 {
		return res, fmt.Errorf("backend %d was killed but no request failed over: the drill did not exercise failover", kill)
	}

	// Phase 3 — shard-scoped cache invalidation via the canary
	// enrolment.
	shard, dependent, independent, err := checkShardScopedInvalidation(svc, cl, w, canary, canaryPrints)
	res.CanaryShard = shard
	res.DependentProbes = dependent
	res.IndependentProbes = independent
	if err != nil {
		return res, err
	}

	if cfg.MinScaling > 0 && res.Scaling < cfg.MinScaling {
		return res, fmt.Errorf("fleet throughput %.1f/s is %.2fx the single-backend baseline %.1f/s, want >= %.2fx",
			res.FleetPerSec, res.Scaling, res.BaselinePerSec, cfg.MinScaling)
	}
	return res, nil
}

// RenderFleet formats the fleet experiment for the terminal.
func (r *FleetResult) RenderFleet() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Replicated fleet — %d types over %d shards, %d backends, %d requests, %d gateways\n",
		r.EnrolledTypes, r.Shards, r.Backends, r.Requests, r.Gateways)
	fmt.Fprintf(&sb, "%-34s %12s\n", "mode", "requests/s")
	fmt.Fprintf(&sb, "%-34s %12.1f\n", "single backend (PR 2 baseline)", r.BaselinePerSec)
	fmt.Fprintf(&sb, "%-34s %12.1f  (%.2fx)\n", "sharded fleet (with backend kill)", r.FleetPerSec, r.Scaling)
	if r.KilledBackend >= 0 {
		revived := "left down"
		if r.Restarted {
			revived = "revived and re-admitted"
		}
		fmt.Fprintf(&sb, "failure drill: backend %d killed mid-run (%s); lost verdicts %d, failovers %d\n",
			r.KilledBackend, revived, r.Lost, r.Failovers)
	}
	fmt.Fprintf(&sb, "cache hit rate: %.1f%%  latency p50 %s  p99 %s\n", 100*r.CacheHitRate, r.P50, r.P99)
	fmt.Fprintf(&sb, "shard-scoped invalidation: enrolling %q into shard %d invalidated %d dependent verdicts, kept %d\n",
		r.CanaryType, r.CanaryShard, r.DependentProbes, r.IndependentProbes)
	if r.Metrics != nil {
		fmt.Fprintf(&sb, "metrics: %s\n", r.Metrics.JSON())
	}
	return sb.String()
}
