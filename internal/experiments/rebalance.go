package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/fingerprint"
	"repro/internal/iotssp"
	"repro/internal/ml"
	"repro/internal/stats"
	"repro/internal/vulndb"
)

// RebalanceConfig parameterizes the live-topology experiment: a
// three-partition cluster (local source, replicated remote target,
// local bystander) rebalanced mid-run by the control plane — two type
// migrations and a rolling shard-group member replacement — while
// gateway clients keep replaying the workload.
type RebalanceConfig struct {
	// Types is the number of enrolled device-types (0 means 9); the
	// partition deals them round-robin over the three partitions.
	Types int
	// Runs is the number of training fingerprints per type (0 means 8).
	Runs int
	// Trees is the per-type forest size (0 means 100).
	Trees int
	// ProbeModels is the number of distinct probe fingerprints per type
	// the workload draws from (0 means 2).
	ProbeModels int
	// Requests is the total identification requests replayed per phase
	// (0 means 384).
	Requests int
	// Gateways is the number of concurrent gateway clients (0 means 2),
	// InFlight each gateway's concurrent requests (0 means 8).
	Gateways int
	InFlight int
	// Replicas is the remote target partition's shard-group member count
	// (0 means 2; must be >= 2 so a member can be replaced live).
	Replicas int
	// BatchSize and Workers tune the front server's dispatcher as in
	// ServiceConfig. CacheSize sizes the verdict cache of the
	// invalidation phase (0 selects the default); the timed
	// phases run uncached so every request exercises the topology.
	BatchSize int
	CacheSize int
	Workers   int
	// Mint selects the minting strategy of every member replacement the
	// experiment runs (controlplane.MintAuto, MintSnapshot or
	// MintReplay); sentinel-eval's -mint flag maps onto it. Whatever the
	// roll uses, the mint audit times both paths and asserts them
	// bit-identical.
	Mint controlplane.MintStrategy
	// NoRebalance replays the live phase without any topology change
	// (debug escape hatch; the headline assertions are skipped).
	NoRebalance bool
	// MaxP99Ratio fails the experiment unless the rebalancing run's p99
	// latency stays within this multiple of the steady run's p99. 0
	// reports the ratio without asserting (callers gate the assertion on
	// GOMAXPROCS, like the replicated experiment).
	MaxP99Ratio float64
	// Wire selects the v4 wire compression on every client leg (gateway
	// pools and the group's member links), as in DistributedConfig. The
	// rebalance experiment reports no compression gain of its own — the
	// distributed/replicated experiments own that assertion — but the
	// drills then exercise dictionary resets across member replacement.
	Wire iotssp.WireMode
	// Seed drives dataset generation, training and workload sampling.
	Seed int64
}

func (c RebalanceConfig) withDefaults() (RebalanceConfig, error) {
	if c.Types == 0 {
		c.Types = 9
	}
	if c.Types < 6 || c.Types >= len(devices.Names()) {
		return c, fmt.Errorf("experiments: rebalance Types must be in [6, %d) so each of the three partitions keeps at least one type through the migrations", len(devices.Names()))
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
		c.Requests = 384
	}
	if c.Gateways == 0 {
		c.Gateways = 2
	}
	if c.InFlight == 0 {
		c.InFlight = 8
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Replicas < 2 {
		return c, fmt.Errorf("experiments: rebalance Replicas must be >= 2 (member replacement needs a group)")
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
func (c RebalanceConfig) phase() wirePhase {
	return wirePhase{Requests: c.Requests, Gateways: c.Gateways, InFlight: c.InFlight, Seed: c.Seed, Wire: c.Wire}
}

// rebalanceShards is the experiment's fixed partition count: a local
// source (0), a replicated remote target (1), and a local bystander (2)
// whose cached verdicts must survive the rebalance untouched.
const rebalanceShards = 3

// RebalanceResult is the outcome of the live-topology experiment.
type RebalanceResult struct {
	EnrolledTypes int
	Replicas      int
	Requests      int
	Gateways      int

	// MigratedOut is the type moved from the local source partition to
	// the remote group (local→remote); MigratedIn the type moved from
	// the group back to the local source (remote→local).
	MigratedOut string
	MigratedIn  string

	// SteadyPerSec is the initial topology with no rebalance;
	// FinalPerSec the post-rebalance topology (migrations and member
	// replacement applied before serving); LivePerSec the run with the
	// rebalance happening mid-flight.
	SteadyPerSec float64
	FinalPerSec  float64
	LivePerSec   float64

	// SteadyP50/SteadyP99 are the steady run's latencies; LiveP50/
	// LiveP99 the rebalancing run's. P99Ratio is LiveP99/SteadyP99 —
	// what the staged rollout cost the tail.
	SteadyP50, SteadyP99 time.Duration
	LiveP50, LiveP99     time.Duration
	P99Ratio             float64

	// Lost counts live-run requests that returned no verdict (must be
	// zero). Mismatches counts live verdicts equal to neither the
	// initial-topology nor the final-topology baseline at that index
	// (must be zero: during a staged rollout every verdict is one of the
	// two, depending on which side of the flip it ran).
	Lost       int
	Mismatches int

	// Rebalanced/Replaced report that the mid-run migrations and the
	// member replacement actually ran.
	Rebalanced bool
	Replaced   bool

	// Mint audit, run on the live cluster after its rebalance: the
	// replacement-minting strategy the rolls used, the measured duration
	// of each minting path — snapshot state transfer vs history replay —
	// their ratio, and the bit-identity of the two minted banks.
	MintStrategy     string
	SnapshotMint     time.Duration
	ReplayMint       time.Duration
	MintSpeedup      float64
	MintBitIdentical bool

	// Invalidation audit on a warmed cache: exactly the verdicts
	// depending on the two migrated types' partitions recompute, and the
	// Invalidations counter moves by exactly Dependent — one stale drop
	// per dependent entry, however many version bumps the rollout made.
	DependentProbes   int
	IndependentProbes int
	Invalidations     uint64

	// Metrics is the run's single JSON stats snapshot.
	Metrics *MetricsSnapshot
}

// rebalanceTopology deals the types over the three partitions:
// partition 1 is the remote shard group, 0 and 2 are local.
func rebalanceTopology(train map[string][]*fingerprint.Fingerprint, replicas int) controlplane.Topology {
	names := make([]string, 0, len(train))
	for name := range train {
		names = append(names, name)
	}
	parts := make([]controlplane.PartitionSpec, 0, rebalanceShards)
	for s, types := range controlplane.RoundRobin(names, rebalanceShards) {
		spec := controlplane.PartitionSpec{Types: types, Local: s != 1}
		if s == 1 {
			spec.Members = replicas
		}
		parts = append(parts, spec)
	}
	return controlplane.Topology{Partitions: parts}
}

// assembleRebalance starts one cluster of the experiment's shape.
func assembleRebalance(cfg RebalanceConfig, coreCfg core.BankConfig, scfg iotssp.ServerConfig, train map[string][]*fingerprint.Fingerprint, cacheSize int) (*controlplane.Cluster, error) {
	return controlplane.Assemble(controlplane.ClusterConfig{
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
		CacheSize: cacheSize,
		DB:        vulndb.Seeded(),
	}, rebalanceTopology(train, cfg.Replicas), train)
}

// applyRebalance runs the experiment's scripted topology change on a
// cluster: migrate the source partition's first type to the group
// (local→remote), migrate the group's first type to the source
// (remote→local), then roll the group's first member under the given
// minting strategy.
func applyRebalance(cl *controlplane.Cluster, out, in string, replace bool, mint controlplane.MintStrategy) error {
	if err := cl.MigrateType(out, 1); err != nil {
		return err
	}
	if err := cl.MigrateType(in, 0); err != nil {
		return err
	}
	if !replace {
		return nil
	}
	return cl.ReplaceMemberWith(1, 0, mint)
}

// RunRebalance proves the control plane's staged rollouts on a live
// serving topology:
//
//   - Steady: the initial three-partition topology (local source,
//     Replicas-member remote shard group, local bystander) replays the
//     workload untouched — the latency reference and the first verdict
//     baseline.
//   - Final: a twin cluster has the whole rebalance — both type
//     migrations and the rolling member replacement — applied BEFORE
//     serving, then replays the same workload: the second verdict
//     baseline. Training and replay are deterministic, so any live-run
//     verdict must equal one of the two baselines at its index.
//   - Live: a third twin serves the workload while the control plane
//     rebalances mid-flight — at a third of the run both migrations
//     (train-on-target, health-gate, flip-route, drain-source), at
//     two-thirds the rolling member replacement. Zero lost verdicts,
//     every verdict bit-equal to one of the baselines, and p99 within
//     MaxP99Ratio of the steady run.
//   - Invalidation audit: on the still-steady cluster, a fresh cache is
//     warmed with probes whose verdicts depend only on the source
//     partition, only on the group partition, or only on the bystander;
//     the two migrations must invalidate exactly the dependent entries
//     — the Invalidations counter moves by exactly that count, once per
//     entry — and every bystander verdict must survive as a hit.
func RunRebalance(cfg RebalanceConfig) (*RebalanceResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	train, w, _, _, err := buildWireWorkload(cfg.Types, cfg.Runs, cfg.ProbeModels, cfg.Requests, cfg.Seed)
	if err != nil {
		return nil, err
	}
	coreCfg := core.BankConfig{Forest: ml.ForestConfig{Trees: cfg.Trees}, Seed: cfg.Seed}
	scfg := iotssp.ServerConfig{
		BatchSize: cfg.BatchSize,
		Workers:   cfg.Workers,
	}

	res := &RebalanceResult{
		EnrolledTypes: cfg.Types,
		Replicas:      cfg.Replicas,
		Requests:      cfg.Requests,
		Gateways:      cfg.Gateways,
	}

	// Phase 1 — steady topology: latency reference, first baseline, and
	// afterwards the host of the invalidation audit.
	steadyCl, err := assembleRebalance(cfg, coreCfg, scfg, train, -1)
	if err != nil {
		return nil, err
	}
	defer steadyCl.Close()
	// The scripted moves: the source partition's first type goes out to
	// the group, the group's first type comes back in.
	res.MigratedOut = steadyCl.Bank().ShardTypes(0)[0]
	res.MigratedIn = steadyCl.Bank().ShardTypes(1)[0]

	steadyElapsed, steadyLats, steadyVerdicts, _, steadyLost := runWirePhase(steadyCl.Addr(), w, cfg.phase(), nil)
	if steadyLost > 0 {
		return nil, fmt.Errorf("steady phase lost %d verdicts with no topology change", steadyLost)
	}
	res.SteadyPerSec = float64(cfg.Requests) / steadyElapsed.Seconds()
	res.SteadyP50, res.SteadyP99 = latPercentiles(steadyLats)

	// Phase 2 — final topology: the whole rebalance applied up front,
	// then the same replay. Migrations retrain the moved types on their
	// targets, so post-flip verdicts differ from the steady baseline —
	// this run pins down what they must be.
	finalCl, err := assembleRebalance(cfg, coreCfg, scfg, train, -1)
	if err != nil {
		return nil, err
	}
	if err := applyRebalance(finalCl, res.MigratedOut, res.MigratedIn, true, cfg.Mint); err != nil {
		finalCl.Close()
		return nil, fmt.Errorf("pre-applying the rebalance: %w", err)
	}
	finalElapsed, _, finalVerdicts, _, finalLost := runWirePhase(finalCl.Addr(), w, cfg.phase(), nil)
	finalCl.Close()
	if finalLost > 0 {
		return nil, fmt.Errorf("final-topology phase lost %d verdicts with no mid-run change", finalLost)
	}
	res.FinalPerSec = float64(cfg.Requests) / finalElapsed.Seconds()

	// Phase 3 — live rebalance: same twin, topology changed mid-run.
	liveCl, err := assembleRebalance(cfg, coreCfg, scfg, train, -1)
	if err != nil {
		return nil, err
	}
	defer liveCl.Close()
	var rebalanceErr error
	var drills []wireDrill
	if !cfg.NoRebalance {
		drills = []wireDrill{
			{After: int64(cfg.Requests / 3), Fn: func() {
				if err := applyRebalance(liveCl, res.MigratedOut, res.MigratedIn, false, cfg.Mint); err != nil {
					rebalanceErr = err
					return
				}
				res.Rebalanced = true
			}},
			{After: int64(2 * cfg.Requests / 3), Fn: func() {
				if rebalanceErr != nil {
					return
				}
				if err := liveCl.ReplaceMemberWith(1, 0, cfg.Mint); err != nil {
					rebalanceErr = err
					return
				}
				res.Replaced = true
			}},
		}
	}
	liveElapsed, liveLats, liveVerdicts, poolStats, liveLost := runWirePhase(liveCl.Addr(), w, cfg.phase(), drills)
	if rebalanceErr != nil {
		return res, fmt.Errorf("mid-run rebalance failed: %w", rebalanceErr)
	}
	res.LivePerSec = float64(cfg.Requests) / liveElapsed.Seconds()
	res.LiveP50, res.LiveP99 = latPercentiles(liveLats)
	res.Lost = liveLost
	if res.SteadyP99 > 0 {
		res.P99Ratio = float64(res.LiveP99) / float64(res.SteadyP99)
	}

	// Mint audit: on the just-rebalanced live cluster (its history now
	// holds both migrations), time each replacement-minting path and
	// hold the two banks bit-identical — the state transfer must be a
	// pure speedup, never a different replica.
	res.MintStrategy = cfg.Mint.String()
	t0 := time.Now()
	viaSnap, err := liveCl.MintReplacement(1, controlplane.MintSnapshot)
	if err != nil {
		return res, fmt.Errorf("mint audit: snapshot mint: %w", err)
	}
	res.SnapshotMint = time.Since(t0)
	t0 = time.Now()
	viaReplay, err := liveCl.MintReplacement(1, controlplane.MintReplay)
	if err != nil {
		return res, fmt.Errorf("mint audit: replay mint: %w", err)
	}
	res.ReplayMint = time.Since(t0)
	snapA, err := viaSnap.Snapshot()
	if err != nil {
		return res, fmt.Errorf("mint audit: %w", err)
	}
	snapB, err := viaReplay.Snapshot()
	if err != nil {
		return res, fmt.Errorf("mint audit: %w", err)
	}
	res.MintBitIdentical = core.SnapshotsEqual(snapA, snapB)
	if !res.MintBitIdentical {
		return res, fmt.Errorf("mint audit: snapshot-minted member is not bit-identical to the replay-minted one")
	}
	if res.SnapshotMint > 0 {
		res.MintSpeedup = float64(res.ReplayMint) / float64(res.SnapshotMint)
	}

	res.Metrics = &MetricsSnapshot{Experiment: "rebalance", Components: liveCl.Snapshots()}
	for _, ps := range poolStats {
		res.Metrics.Components = append(res.Metrics.Components, ps.Snapshot())
	}
	res.Metrics.Components = append(res.Metrics.Components, stats.New("mint", struct {
		Strategy     string  `json:"strategy"`
		SnapshotNs   int64   `json:"snapshot_ns"`
		ReplayNs     int64   `json:"replay_ns"`
		Speedup      float64 `json:"speedup"`
		BitIdentical bool    `json:"bit_identical"`
	}{res.MintStrategy, res.SnapshotMint.Nanoseconds(), res.ReplayMint.Nanoseconds(), res.MintSpeedup, res.MintBitIdentical}))
	res.Metrics.ComputeBytesPerVerdict(cfg.Requests)

	// Dual-baseline bit-equality: each live verdict ran either before
	// its flip (steady baseline) or after it (final baseline).
	for i := range liveVerdicts {
		if !verdictsEqual(liveVerdicts[i], steadyVerdicts[i]) && !verdictsEqual(liveVerdicts[i], finalVerdicts[i]) {
			res.Mismatches++
		}
	}

	if liveLost > 0 {
		return res, fmt.Errorf("live rebalance lost %d of %d verdicts (want zero: staged rollouts must never drop a request)", liveLost, cfg.Requests)
	}
	if res.Mismatches > 0 {
		return res, fmt.Errorf("%d of %d live verdicts match neither the initial- nor the final-topology baseline (want every verdict bit-equal to one of them)", res.Mismatches, cfg.Requests)
	}
	if !cfg.NoRebalance {
		if !res.Rebalanced || !res.Replaced {
			return res, fmt.Errorf("rebalance drill incomplete: migrations=%v replacement=%v", res.Rebalanced, res.Replaced)
		}
		if cfg.MaxP99Ratio > 0 && res.P99Ratio > cfg.MaxP99Ratio {
			return res, fmt.Errorf("live-rebalance p99 %s is %.2fx the steady p99 %s (max %.2fx): the rollout was not absorbed",
				res.LiveP99, res.P99Ratio, res.SteadyP99, cfg.MaxP99Ratio)
		}
		// Invalidation audit on the still-steady cluster.
		if err := res.auditInvalidation(steadyCl, w, cfg.CacheSize); err != nil {
			return res, err
		}
	}
	return res, nil
}

// auditInvalidation warms a fresh cache over the cluster with probes of
// known partition dependencies, runs the two migrations, and asserts
// the exact invalidation arithmetic: Invalidations moves by exactly the
// dependent-entry count (one stale drop per entry, though the rollout
// bumps versions on both partitions), dependents recompute as misses,
// and bystander-only verdicts all survive as hits.
func (r *RebalanceResult) auditInvalidation(cl *controlplane.Cluster, w *serviceWorkload, cacheSize int) error {
	bank := cl.Bank()
	svc := cl.AuxService(cacheSize)

	// Classify each distinct probe by which partitions its verdict
	// depends on; unknown verdicts depend on every partition.
	var dependents, independents []*fingerprint.Fingerprint
	seenFP := make(map[uint64]bool)
	for _, fp := range w.probes {
		if h := fp.Hash(); seenFP[h] {
			continue
		} else {
			seenFP[h] = true
		}
		res := bank.Identify(fp)
		touches := map[int]bool{}
		if !res.Known {
			touches[0], touches[1], touches[2] = true, true, true
		} else {
			for _, name := range res.Accepted {
				if s, ok := bank.ShardOf(name); ok {
					touches[s] = true
				}
			}
		}
		if touches[0] || touches[1] {
			dependents = append(dependents, fp)
		} else {
			independents = append(independents, fp)
		}
	}
	r.DependentProbes, r.IndependentProbes = len(dependents), len(independents)
	if len(dependents) == 0 {
		return fmt.Errorf("invalidation audit degenerate: no probe depends on the migrating partitions")
	}

	// Warm every probe, then rebalance.
	for i, fp := range append(append([]*fingerprint.Fingerprint(nil), dependents...), independents...) {
		if resp := svc.Identify(fmt.Sprintf("02:f6:00:00:00:%02x", i), fp); resp.Error != "" {
			return fmt.Errorf("warming audit probe %d: %s", i, resp.Error)
		}
	}
	st0 := svc.CacheStats()
	if err := applyRebalance(cl, r.MigratedOut, r.MigratedIn, false, controlplane.MintAuto); err != nil {
		return fmt.Errorf("audit rebalance: %w", err)
	}
	for i, fp := range append(append([]*fingerprint.Fingerprint(nil), dependents...), independents...) {
		svc.Identify(fmt.Sprintf("02:f6:00:00:01:%02x", i), fp)
	}
	st1 := svc.CacheStats()
	r.Invalidations = st1.Invalidations - st0.Invalidations

	if got, want := r.Invalidations, uint64(len(dependents)); got != want {
		return fmt.Errorf("migration invalidated %d cached verdicts, want exactly %d (one stale drop per dependent entry, nothing double-counted across the rollout's version bumps)", got, want)
	}
	if got, want := st1.Misses-st0.Misses, uint64(len(dependents)); got != want {
		return fmt.Errorf("%d cache misses after the migrations, want %d (exactly the dependent verdicts recompute)", got, want)
	}
	if got, want := st1.Hits-st0.Hits, uint64(len(independents)); got != want {
		return fmt.Errorf("%d cache hits after the migrations, want %d (bystander verdicts must survive)", got, want)
	}
	return nil
}

// RenderRebalance formats the live-topology experiment for the
// terminal.
func (r *RebalanceResult) RenderRebalance() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Live topology rebalance — %d types over %d partitions (group of %d), %d requests, %d gateways\n",
		r.EnrolledTypes, rebalanceShards, r.Replicas, r.Requests, r.Gateways)
	fmt.Fprintf(&sb, "moves: %q local->group, %q group->local, then roll group member 0\n", r.MigratedOut, r.MigratedIn)
	fmt.Fprintf(&sb, "%-42s %12s %10s %10s\n", "mode", "requests/s", "p50", "p99")
	fmt.Fprintf(&sb, "%-42s %12.1f %10s %10s\n", "steady (initial topology)", r.SteadyPerSec, r.SteadyP50, r.SteadyP99)
	fmt.Fprintf(&sb, "%-42s %12.1f %10s %10s\n", "final (rebalance applied up front)", r.FinalPerSec, "-", "-")
	fmt.Fprintf(&sb, "%-42s %12.1f %10s %10s\n", "live (rebalance mid-run)", r.LivePerSec, r.LiveP50, r.LiveP99)
	fmt.Fprintf(&sb, "verdicts: %d lost, %d outside the two baselines; p99 ratio %.2fx vs steady\n",
		r.Lost, r.Mismatches, r.P99Ratio)
	if r.Rebalanced {
		replaced := "member replacement skipped"
		if r.Replaced {
			replaced = fmt.Sprintf("group member 0 rolled (mint %s)", r.MintStrategy)
		}
		fmt.Fprintf(&sb, "rollout: both migrations staged mid-run (train-on-target -> health-gate -> flip-route -> drain-source); %s\n", replaced)
	}
	if r.SnapshotMint > 0 || r.ReplayMint > 0 {
		fmt.Fprintf(&sb, "mint audit: snapshot transfer %s vs history replay %s (%.1fx), banks bit-identical: %v\n",
			r.SnapshotMint, r.ReplayMint, r.MintSpeedup, r.MintBitIdentical)
	}
	if r.DependentProbes > 0 {
		fmt.Fprintf(&sb, "invalidation audit: %d dependent verdicts dropped exactly once (%d invalidations), %d bystander verdicts survived\n",
			r.DependentProbes, r.Invalidations, r.IndependentProbes)
	}
	if r.Metrics != nil {
		fmt.Fprintf(&sb, "metrics: %s\n", r.Metrics.JSON())
	}
	return sb.String()
}
