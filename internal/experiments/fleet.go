package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/controlplane"
	"repro/internal/devices"
	"repro/internal/gateway"
	"repro/internal/iotssp"
)

// FleetConfig parameterizes the replicated-fleet experiment: a
// sharded classifier bank served by several IoTSSP replicas behind
// health-aware, consistent-hashing gateway clients, with one backend
// killed (and revived) mid-run. Load's zero fields default to 9 types
// (the next catalog type is the canary enrolment of the
// shard-scoped cache-invalidation check), 512 requests per phase, 4
// gateways — each with its own FleetPool and health view — with 16
// requests in flight each, and batch 32.
type FleetConfig struct {
	Load
	// Shards is the classifier-bank shard count (0 means 2).
	Shards int
	// Backends is the replica count of the fleet phase (0 means 2). The
	// baseline phase always runs one backend over an unsharded bank —
	// the PR 2 service mode.
	Backends int
	// MinScaling, when positive, makes RunFleet fail unless fleet
	// throughput reaches MinScaling × the single-backend baseline.
	MinScaling float64
}

func (c FleetConfig) withDefaults() (FleetConfig, error) {
	c.Load = c.Load.withDefaults(Load{Types: 9, Requests: 512, Gateways: 4, InFlight: 16, BatchSize: 32})
	if c.Types < 2 || c.Types >= len(devices.Names()) {
		return c, fmt.Errorf("experiments: fleet Types must be in [2, %d) to leave a canary type", len(devices.Names()))
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.Backends == 0 {
		c.Backends = 2
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

	// KilledBackend is the replica stopped mid-run (-1 with a single
	// backend: nothing to fail over to); Restarted reports whether it
	// was revived.
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

// fleetPools opens one health-aware FleetPool per gateway over the
// fleet's backend addresses.
func fleetPools(addrs []string, l Load) []*gateway.FleetPool {
	out := make([]*gateway.FleetPool, l.Gateways)
	for g := range out {
		out[g] = gateway.NewFleetPool(addrs, gateway.FleetPoolConfig{
			Pool: gateway.PoolConfig{
				Conns:        2,
				MaxRetries:   2,
				RetryBackoff: 2 * time.Millisecond,
				Seed:         l.Seed + int64(g),
			},
			FailureThreshold: 2,
			ProbeBackoff:     5 * time.Millisecond,
			MaxProbeBackoff:  100 * time.Millisecond,
		})
	}
	return out
}

// awaitFailover returns once any of clients has failed a request over
// to another backend, or after timeout.
func awaitFailover(clients []*gateway.FleetPool, timeout time.Duration) {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, c := range clients {
			if c.Counters().Failovers > 0 {
				return
			}
		}
	}
}

// checkShardScopedInvalidation enrolls the canary type through the
// cluster's control plane and verifies with cache counters that exactly
// the cached verdicts depending on the enrolled shard were invalidated.
// Returns (shard, dependent, independent).
func checkShardScopedInvalidation(svc *iotssp.Service, cl *controlplane.Cluster, w *workload) (int, int, int, error) {
	bank := cl.Bank()
	canary := w.canary
	probes := w.distinctProbes()

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

	if err := cl.Bank().Enroll(canary, w.canaryPrints); err != nil {
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
//     is killed; two-thirds in, once a request has failed over, it is
//     revived and probed back into rotation. Every request must still
//     produce a verdict (failed attempts retry onto healthy replicas):
//     Lost must be zero.
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
	w, err := buildWorkload(cfg.Load, 0xf2)
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
		CanaryType:    w.canary,
	}

	// Phase 1 — single-backend baseline (PR 2 service mode).
	baseCl, err := controlplane.Assemble(cfg.cluster(cfg.CacheSize), topology(w.train, 1, -1), w.train)
	if err != nil {
		return nil, err
	}
	if err := warmCache(baseCl.Addr(), w, cfg.Seed); err != nil {
		baseCl.Close()
		return nil, err
	}
	base := replay(fleetPools(baseCl.Addrs(), cfg.Load), w, cfg.InFlight)
	baseCl.Close()
	if base.lost > 0 {
		return nil, fmt.Errorf("baseline phase lost %d verdicts with no failure injected", base.lost)
	}
	res.BaselinePerSec = base.perSec

	// Phase 2 — the replicated fleet over the sharded bank, with the
	// mid-run kill: the last backend stops a third of the way in and is
	// revived two-thirds in.
	fleetCfg := cfg.cluster(cfg.CacheSize)
	fleetCfg.Frontends = cfg.Backends
	cl, err := controlplane.Assemble(fleetCfg, topology(w.train, cfg.Shards, -1), w.train)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	svc := cl.Service()
	if err := warmCache(cl.Addr(), w, cfg.Seed); err != nil {
		return nil, err
	}
	warm := svc.CacheStats()

	clients := fleetPools(cl.Addrs(), cfg.Load)
	var drills []drill
	if cfg.Backends > 1 {
		res.KilledBackend = cfg.Backends - 1
		fe := cl.Frontend(res.KilledBackend)
		drills = []drill{
			{after: cfg.Requests / 3, fn: func() { fe.Stop() }},
			// The revival waits for a failover (a second at most): on a
			// fast bank the requests between the two drills can all be
			// answered before a retry against the dead replica gives up,
			// and an early revival would absorb that retry instead.
			{after: 2 * cfg.Requests / 3, fn: func() {
				awaitFailover(clients, time.Second)
				res.Restarted = fe.Start() == nil
			}},
		}
	}
	ph := replay(clients, w, cfg.InFlight, drills...)
	res.FleetPerSec = ph.perSec
	res.Scaling = res.FleetPerSec / res.BaselinePerSec
	res.Lost = ph.lost
	for _, c := range clients {
		res.Failovers += c.Counters().Failovers
	}
	res.CacheHitRate = hitRate(warm, svc.CacheStats())
	res.P50, res.P99 = ph.p50, ph.p99
	res.Metrics = ph.metrics("fleet", cl)

	if ph.lost > 0 {
		return res, fmt.Errorf("fleet lost %d of %d verdicts across the backend kill (want zero: failed requests must retry onto healthy replicas)", ph.lost, cfg.Requests)
	}
	if res.KilledBackend >= 0 && res.Failovers == 0 {
		return res, fmt.Errorf("backend %d was killed but no request failed over: the drill did not exercise failover", res.KilledBackend)
	}

	// Phase 3 — shard-scoped cache invalidation via the canary
	// enrolment.
	shard, dependent, independent, err := checkShardScopedInvalidation(svc, cl, w)
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
