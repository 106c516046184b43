package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
	"repro/internal/ml"
)

// ServiceConfig parameterizes the multi-gateway load experiment: many
// Security Gateways driving one IoT Security Service over TCP, with
// the fleet's repeat-setup pattern (the same device models appearing
// again and again) exercising the verdict cache and the micro-batching
// dispatcher. Load's zero fields default to every catalog type (the
// full catalog makes the per-request baseline realistically
// identification-bound, as on the paper's deployment), 512 requests, 4
// gateways with 16 requests in flight each, and batch 32.
type ServiceConfig struct {
	Load
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.Types < 0 || c.Types > len(devices.Names()) {
		c.Types = 0
	}
	c.Load = c.Load.withDefaults(Load{Types: len(devices.Names()), Requests: 512, Gateways: 4, InFlight: 16, BatchSize: 32})
	return c
}

// ServiceResult is the outcome of the multi-gateway load experiment.
type ServiceResult struct {
	EnrolledTypes int
	Requests      int
	Gateways      int
	BatchSize     int

	// BaselinePerSec is the per-request mode: batching and caching
	// disabled, every request pays a full bank identification, one at a
	// time.
	BaselinePerSec float64
	// ServicePerSec is the load-ready mode: micro-batching dispatcher
	// plus warm verdict cache.
	ServicePerSec float64
	// Speedup is ServicePerSec over BaselinePerSec.
	Speedup float64
	// CacheHitRate is the measured fraction of requests served without
	// a verdict computation during the timed service run.
	CacheHitRate float64
	// PhaseClassifications counts the fingerprints the bank classified
	// during the timed service run (a ClassifyStats delta taken after
	// the cache warm-up): zero when the warm cache served every request.
	PhaseClassifications uint64
	// P50 and P99 are service-mode request latencies.
	P50, P99 time.Duration
	// Stats snapshots the service-mode frontend after the run.
	Stats iotssp.ServerStats
	// Metrics is the run's single JSON stats snapshot (every managed
	// component plus the gateway client pools, uniformly tagged).
	Metrics *MetricsSnapshot
}

// assertFusedOracle checks the fused stage-one verdicts against the
// per-forest oracle on the serving cluster's own local shards for every
// probe the run will replay — the bit-identity the unit tests hold is
// re-asserted on the deployment-shaped bank, per run.
func assertFusedOracle(sb *core.ShardedBank, probes []*fingerprint.Fingerprint) error {
	for s := 0; s < sb.Shards(); s++ {
		bank, ok := sb.Shard(s).(*core.Bank)
		if !ok {
			continue
		}
		for i, fp := range probes {
			fixed := fp.FixedN(fingerprint.FixedPackets)
			fused := bank.Classify(fixed)
			oracle := bank.ClassifyOracle(fixed)
			if !equalAccepts(fused, oracle) {
				return fmt.Errorf("experiments: fused classify diverged from per-forest oracle on probe %d, shard %d: fused %v, oracle %v", i, s, fused, oracle)
			}
		}
	}
	return nil
}

func equalAccepts(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// measureClassifyAllocs measures the fused ClassifyVotes kernel's
// steady-state heap allocation rate on one local shard: repeated passes
// over a prepared sample matrix with reused votes/accepts buffers,
// Mallocs delta divided by fingerprints classified. The first
// (unmeasured) pass sizes the reusable buffers, so the measurement sees
// only the steady state the engine promises is allocation-free.
func measureClassifyAllocs(sb *core.ShardedBank, probes []*fingerprint.Fingerprint) float64 {
	var bank *core.Bank
	for s := 0; s < sb.Shards(); s++ {
		if b, ok := sb.Shard(s).(*core.Bank); ok {
			bank = b
			break
		}
	}
	if bank == nil || len(probes) == 0 {
		return 0
	}
	var m ml.SampleMatrix
	m.Reset(len(probes), fingerprint.FixedPackets*features.NumFeatures)
	for i, fp := range probes {
		fp.FixedNInto(m.Row(i), fingerprint.FixedPackets)
	}
	var votes []int32
	var accepts core.AcceptMask
	bank.ClassifyVotes(&m, &votes, &accepts, 0)
	const rounds = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		bank.ClassifyVotes(&m, &votes, &accepts, 0)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(rounds*len(probes))
}

// RunService measures the multi-gateway IoT Security Service under a
// fleet replay: the same training corpus served two ways over TCP,
// each assembled as a one-partition controlplane.Cluster.
//
// The per-request baseline disables batching and caching — every
// request pays a full bank identification, one fingerprint at a time,
// as the paper's deployment sketch implies. The service mode runs the
// micro-batching dispatcher with the verdict cache warmed by one pass
// over the distinct probe models, then replays the same workload
// through pooled, pipelined gateway clients. The result reports
// throughput for both modes, the speedup, the measured cache hit rate
// and service-mode latency percentiles.
func RunService(cfg ServiceConfig) (*ServiceResult, error) {
	cfg = cfg.withDefaults()
	w, err := buildWorkload(cfg.Load, 0xf1)
	if err != nil {
		return nil, err
	}
	topo := topology(w.train, 1, -1)

	res := &ServiceResult{
		EnrolledTypes: cfg.Types,
		Requests:      cfg.Requests,
		Gateways:      cfg.Gateways,
		BatchSize:     cfg.BatchSize,
	}

	// Per-request baseline: no cache, no batching, one connection and
	// one request in flight per gateway. Training is a pure function of
	// (config, corpus), so the baseline cluster's bank is bit-identical
	// to the service cluster's.
	baseCfg := cfg.cluster(-1)
	baseCfg.Server = iotssp.ServerConfig{BatchSize: 1}
	baseCl, err := controlplane.Assemble(baseCfg, topo, w.train)
	if err != nil {
		return nil, err
	}
	base := replay(pools(baseCl.Addr(), cfg.Gateways, gateway.PoolConfig{Conns: 1, Seed: cfg.Seed}), w, 1)
	baseCl.Close()
	if base.lost > 0 {
		return nil, fmt.Errorf("per-request baseline lost %d of %d verdicts", base.lost, cfg.Requests)
	}
	res.BaselinePerSec = base.perSec

	// Load-ready service: micro-batching + verdict cache.
	cl, err := controlplane.Assemble(cfg.cluster(cfg.CacheSize), topo, w.train)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	if err := assertFusedOracle(cl.Bank(), w.probes); err != nil {
		return nil, err
	}

	// Warm the verdict cache: one pass over the distinct probe models.
	// The fused classify counters start here, not at the timed phase —
	// once the cache is warm the steady state serves hits, so the warm
	// pass is where the fused passes actually run.
	csBefore := cl.Bank().ClassifyStats()
	if err := warmCache(cl.Addr(), w, cfg.Seed); err != nil {
		return nil, err
	}
	warm := cl.Frontend(0).Counters().Cache
	csWarm := cl.Bank().ClassifyStats()

	ph := replay(pools(cl.Addr(), cfg.Gateways, gateway.PoolConfig{Conns: 2, Seed: cfg.Seed}), w, cfg.InFlight)
	if ph.lost > 0 {
		return nil, fmt.Errorf("service phase lost %d of %d verdicts", ph.lost, cfg.Requests)
	}
	csAfter := cl.Bank().ClassifyStats()
	res.PhaseClassifications = csAfter.Fingerprints - csWarm.Fingerprints
	res.ServicePerSec = ph.perSec
	res.Speedup = res.ServicePerSec / res.BaselinePerSec
	res.P50, res.P99 = ph.p50, ph.p99

	res.Stats = cl.Frontend(0).Counters()
	res.CacheHitRate = hitRate(warm, res.Stats.Cache)
	res.Metrics = ph.metrics("service", cl)
	if d := csAfter.Fingerprints - csBefore.Fingerprints; d > 0 {
		res.Metrics.ClassifyNsPerFP = float64(csAfter.Nanos-csBefore.Nanos) / float64(d)
	}
	res.Metrics.ClassifyAllocsPerVerdict = measureClassifyAllocs(cl.Bank(), w.probes)
	return res, nil
}

// RenderService formats the load experiment for the terminal.
func (r *ServiceResult) RenderService() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Multi-gateway service load — %d types, %d requests, %d gateways, batch %d\n",
		r.EnrolledTypes, r.Requests, r.Gateways, r.BatchSize)
	fmt.Fprintf(&sb, "%-28s %12s\n", "mode", "requests/s")
	fmt.Fprintf(&sb, "%-28s %12.1f\n", "per-request (no cache)", r.BaselinePerSec)
	fmt.Fprintf(&sb, "%-28s %12.1f  (%.2fx)\n", "batched + warm cache", r.ServicePerSec, r.Speedup)
	fmt.Fprintf(&sb, "cache hit rate: %.1f%%  latency p50 %s  p99 %s\n",
		100*r.CacheHitRate, r.P50, r.P99)
	fmt.Fprintf(&sb, "dispatcher: %d batches, mean %.1f, max %d; overloaded %d, malformed %d\n",
		r.Stats.Batches, r.Stats.MeanBatch(), r.Stats.MaxBatch, r.Stats.Overloaded, r.Stats.Malformed)
	// ClassifyNsPerFP > 0 means the fused engine actually ran this run;
	// the alloc figure prints alongside even when it is the ideal 0.
	if r.Metrics != nil && r.Metrics.ClassifyNsPerFP > 0 {
		fmt.Fprintf(&sb, "fused classify: %.0f ns/fingerprint, %.3f allocs/verdict (verdicts == per-forest oracle)\n",
			r.Metrics.ClassifyNsPerFP, r.Metrics.ClassifyAllocsPerVerdict)
	}
	if r.Metrics != nil {
		fmt.Fprintf(&sb, "metrics: %s\n", r.Metrics.JSON())
	}
	return sb.String()
}
