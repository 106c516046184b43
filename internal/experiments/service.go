package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
	"repro/internal/ml"
	"repro/internal/vulndb"
)

// ServiceConfig parameterizes the multi-gateway load experiment: many
// Security Gateways driving one IoT Security Service over TCP, with
// the fleet's repeat-setup pattern (the same device models appearing
// again and again) exercising the verdict cache and the micro-batching
// dispatcher.
type ServiceConfig struct {
	// Types is the number of enrolled device-types (0 means all 27 —
	// the full catalog makes the per-request baseline realistically
	// identification-bound, as on the paper's deployment).
	Types int
	// Runs is the number of training fingerprints per type (0 means 8).
	Runs int
	// Trees is the per-type forest size (0 means 100).
	Trees int
	// ProbeModels is the number of distinct probe fingerprints per type
	// the fleet workload draws from (0 means 2): a fleet replays few
	// models many times.
	ProbeModels int
	// Requests is the total identification requests replayed (0 means
	// 512).
	Requests int
	// Gateways is the number of concurrent gateway clients (0 means 4).
	Gateways int
	// ConnsPerGateway sizes each gateway's connection pool (0 means 2).
	ConnsPerGateway int
	// InFlight is each gateway's concurrent in-flight requests (0 means
	// 16) — the pipelining that feeds the server's micro-batches.
	InFlight int
	// BatchSize caps the server's micro-batch flush (0 means 32).
	BatchSize int
	// CacheSize is the server's verdict cache capacity (0 means
	// iotssp.DefaultCacheSize).
	CacheSize int
	// Workers is the per-flush Bank.IdentifyBatch worker count (0 means
	// GOMAXPROCS).
	Workers int
	// Seed drives dataset generation, training and workload sampling.
	Seed int64
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.Types <= 0 || c.Types > len(devices.Names()) {
		c.Types = len(devices.Names())
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
	if c.ConnsPerGateway == 0 {
		c.ConnsPerGateway = 2
	}
	if c.InFlight == 0 {
		c.InFlight = 16
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.CacheSize == 0 {
		c.CacheSize = iotssp.DefaultCacheSize
	}
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
	// P50 and P99 are service-mode request latencies.
	P50, P99 time.Duration
	// Stats snapshots the service-mode frontend after the run.
	Stats iotssp.ServerStats
	// Metrics is the run's single JSON stats snapshot (every managed
	// component plus the gateway client pools, uniformly tagged).
	Metrics *MetricsSnapshot
}

// serviceWorkload is the shared fleet replay: request i carries MAC
// macs[i] and fingerprint probes[model[i]].
type serviceWorkload struct {
	probes []*fingerprint.Fingerprint
	model  []int
	macs   []string
}

// buildServiceWorkload samples the training set and the fleet replay.
func buildServiceWorkload(cfg ServiceConfig) (map[string][]*fingerprint.Fingerprint, *serviceWorkload, error) {
	env := devices.DefaultEnv()
	ds, err := devices.GenerateDataset(env, cfg.Seed, cfg.Runs+cfg.ProbeModels)
	if err != nil {
		return nil, nil, err
	}
	names := devices.Names()[:cfg.Types]
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
	// A small linear congruential stream keeps the replay deterministic
	// without sharing the bank's rand streams.
	state := uint64(cfg.Seed)*6364136223846793005 + 1442695040888963407
	for i := range w.model {
		state = state*6364136223846793005 + 1442695040888963407
		w.model[i] = int(state>>33) % len(probes)
		w.macs[i] = fmt.Sprintf("02:f1:%02x:%02x:%02x:%02x", (i>>24)&0xff, (i>>16)&0xff, (i>>8)&0xff, i&0xff)
	}
	return train, w, nil
}

// runServicePhase replays the workload against a served address and
// returns the elapsed wall time with per-request latencies. Each of
// gateways clients drives inFlight concurrent requests through its own
// connection pool; request indices are handed out via a shared cursor.
func runServicePhase(addr string, w *serviceWorkload, gateways, conns, inFlight int, seed int64) (time.Duration, []time.Duration, []gateway.PoolStats, error) {
	pools := make([]*gateway.Pool, gateways)
	for g := range pools {
		pools[g] = gateway.NewPool(addr, gateway.PoolConfig{Conns: conns, Seed: seed + int64(g)})
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()

	var cursor atomic.Int64
	lats := make([][]time.Duration, gateways*inFlight)
	errs := make(chan error, gateways*inFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < gateways; g++ {
		for k := 0; k < inFlight; k++ {
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
					if err != nil {
						errs <- fmt.Errorf("request %d: %w", i, err)
						return
					}
					if resp.MAC != w.macs[i] {
						errs <- fmt.Errorf("request %d: response MAC %q, want %q", i, resp.MAC, w.macs[i])
						return
					}
					lats[slot] = append(lats[slot], time.Since(t0))
				}
			}(g, g*inFlight+k)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return 0, nil, nil, err
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	poolStats := make([]gateway.PoolStats, len(pools))
	for g, p := range pools {
		poolStats[g] = p.Counters()
	}
	return elapsed, all, poolStats, nil
}

// runBaselinePhase replays the workload one request at a time per
// gateway over single-connection clients (no pipelining, no pooling).
func runBaselinePhase(addr string, w *serviceWorkload, gateways int) (time.Duration, error) {
	var cursor atomic.Int64
	errs := make(chan error, gateways)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < gateways; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := iotssp.NewClient(addr)
			defer client.Close()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(w.model) {
					return
				}
				if _, err := client.Identify(context.Background(), w.macs[i], w.probes[w.model[i]]); err != nil {
					errs <- fmt.Errorf("baseline request %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return 0, err
	}
	return elapsed, nil
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

// serviceTopology is the load experiment's trivial topology: one local
// partition owning every type, served by one frontend.
func serviceTopology(train map[string][]*fingerprint.Fingerprint) controlplane.Topology {
	names := make([]string, 0, len(train))
	for name := range train {
		names = append(names, name)
	}
	return controlplane.Topology{Partitions: []controlplane.PartitionSpec{
		{Types: controlplane.RoundRobin(names, 1)[0], Local: true},
	}}
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
	train, w, err := buildServiceWorkload(cfg)
	if err != nil {
		return nil, err
	}
	topo := serviceTopology(train)
	coreCfg := core.BankConfig{Forest: ml.ForestConfig{Trees: cfg.Trees}, Seed: cfg.Seed}

	res := &ServiceResult{
		EnrolledTypes: cfg.Types,
		Requests:      cfg.Requests,
		Gateways:      cfg.Gateways,
		BatchSize:     cfg.BatchSize,
	}

	// Per-request baseline: no cache, no batching. Training is a pure
	// function of (config, corpus), so the baseline cluster's bank is
	// bit-identical to the service cluster's.
	baseCl, err := controlplane.Assemble(controlplane.ClusterConfig{
		Core:      coreCfg,
		Server:    iotssp.ServerConfig{BatchSize: 1},
		CacheSize: -1,
		DB:        vulndb.Seeded(),
	}, topo, train)
	if err != nil {
		return nil, err
	}
	baseElapsed, err := runBaselinePhase(baseCl.Addr(), w, cfg.Gateways)
	baseCl.Close()
	if err != nil {
		return nil, err
	}
	res.BaselinePerSec = float64(cfg.Requests) / baseElapsed.Seconds()

	// Load-ready service: micro-batching + verdict cache.
	cl, err := controlplane.Assemble(controlplane.ClusterConfig{
		Core: coreCfg,
		Server: iotssp.ServerConfig{
			BatchSize: cfg.BatchSize,
			Workers:   cfg.Workers,
		},
		CacheSize: cfg.CacheSize,
		DB:        vulndb.Seeded(),
	}, topo, train)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	addr := cl.Addr()

	if err := assertFusedOracle(cl.Bank(), w.probes); err != nil {
		return nil, err
	}

	// Warm the verdict cache: one pass over the distinct probe models.
	// The fused classify counters start here, not at the timed phase —
	// once the cache is warm the steady state serves hits, so the warm
	// pass is where the fused passes actually run.
	csBefore := cl.Bank().ClassifyStats()
	warm := gateway.NewPool(addr, gateway.PoolConfig{Conns: cfg.ConnsPerGateway, Seed: cfg.Seed})
	for i, fp := range w.probes {
		if _, err := warm.Identify(context.Background(), fmt.Sprintf("02:f0:00:00:00:%02x", i), fp); err != nil {
			warm.Close()
			return nil, fmt.Errorf("warming cache: %w", err)
		}
	}
	warm.Close()
	warmStats := cl.Frontend(0).Counters()

	elapsed, lats, poolStats, err := runServicePhase(addr, w, cfg.Gateways, cfg.ConnsPerGateway, cfg.InFlight, cfg.Seed)
	if err != nil {
		return nil, err
	}
	csAfter := cl.Bank().ClassifyStats()
	res.ServicePerSec = float64(cfg.Requests) / elapsed.Seconds()
	res.Speedup = res.ServicePerSec / res.BaselinePerSec

	res.Stats = cl.Frontend(0).Counters()
	res.Metrics = &MetricsSnapshot{Experiment: "service", Components: cl.Snapshots()}
	for _, ps := range poolStats {
		res.Metrics.Components = append(res.Metrics.Components, ps.Snapshot())
	}
	if d := csAfter.Fingerprints - csBefore.Fingerprints; d > 0 {
		res.Metrics.ClassifyNsPerFP = float64(csAfter.Nanos-csBefore.Nanos) / float64(d)
	}
	res.Metrics.ClassifyAllocsPerVerdict = measureClassifyAllocs(cl.Bank(), w.probes)
	c := res.Stats.Cache
	warmed := warmStats.Cache
	served := (c.Hits + c.Shared) - (warmed.Hits + warmed.Shared)
	computed := c.Misses - warmed.Misses
	if served+computed > 0 {
		res.CacheHitRate = float64(served) / float64(served+computed)
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		res.P50 = lats[len(lats)/2]
		res.P99 = lats[len(lats)*99/100]
	}
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
