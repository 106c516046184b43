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
	"repro/internal/stats"
)

// RebalanceConfig parameterizes the live-topology experiment: a
// three-partition cluster (local source, replicated remote target,
// local bystander) rebalanced mid-run by the control plane — two type
// migrations and a rolling shard-group member replacement — while
// gateway clients keep replaying the workload. Load's zero fields
// default to 9 types dealt round-robin over the three partitions, 384
// requests per phase, 2 gateways with 8 in flight each, and batch 16;
// Load.CacheSize sizes only the invalidation audit's cache, the timed
// phases run uncached so every request exercises the topology.
type RebalanceConfig struct {
	Load
	// Replicas is the remote target partition's shard-group member count
	// (0 means 2; must be >= 2 so a member can be replaced live).
	Replicas int
	// Mint selects the minting strategy of every member replacement the
	// experiment runs (controlplane.MintAuto, MintSnapshot or
	// MintReplay); sentinel-eval's -mint flag maps onto it. Whatever the
	// roll uses, the mint audit times both paths and asserts them
	// bit-identical.
	Mint controlplane.MintStrategy
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
}

func (c RebalanceConfig) withDefaults() (RebalanceConfig, error) {
	c.Load = c.Load.withDefaults(Load{Types: 9, Requests: 384, Gateways: 2, InFlight: 8, BatchSize: 16})
	if c.Types < 6 || c.Types >= len(devices.Names()) {
		return c, fmt.Errorf("experiments: rebalance Types must be in [6, %d) so each of the three partitions keeps at least one type through the migrations", len(devices.Names()))
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Replicas < 2 {
		return c, fmt.Errorf("experiments: rebalance Replicas must be >= 2 (member replacement needs a group)")
	}
	return c, nil
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
	w, err := buildWorkload(cfg.Load, 0xf5)
	if err != nil {
		return nil, err
	}
	// assemble starts one cluster of the experiment's shape: partition 1
	// is the remote shard group, 0 and 2 are local.
	assemble := func() (*controlplane.Cluster, error) {
		cc := cfg.cluster(-1)
		cc.Group = groupConfig(cfg.Seed+211, cfg.Wire)
		return controlplane.Assemble(cc, topology(w.train, rebalanceShards, 1, cfg.Replicas), w.train)
	}

	res := &RebalanceResult{
		EnrolledTypes: cfg.Types,
		Replicas:      cfg.Replicas,
		Requests:      cfg.Requests,
		Gateways:      cfg.Gateways,
	}

	// Phase 1 — steady topology: latency reference, first baseline, and
	// afterwards the host of the invalidation audit.
	steadyCl, err := assemble()
	if err != nil {
		return nil, err
	}
	defer steadyCl.Close()
	// The scripted moves: the source partition's first type goes out to
	// the group, the group's first type comes back in.
	res.MigratedOut = steadyCl.Bank().ShardTypes(0)[0]
	res.MigratedIn = steadyCl.Bank().ShardTypes(1)[0]

	steady := replay(wirePools(steadyCl.Addr(), cfg.Load, cfg.Seed, cfg.Wire), w, cfg.InFlight)
	if steady.lost > 0 {
		return nil, fmt.Errorf("steady phase lost %d verdicts with no topology change", steady.lost)
	}
	res.SteadyPerSec = steady.perSec
	res.SteadyP50, res.SteadyP99 = steady.p50, steady.p99

	// Phase 2 — final topology: the whole rebalance applied up front,
	// then the same replay. Migrations retrain the moved types on their
	// targets, so post-flip verdicts differ from the steady baseline —
	// this run pins down what they must be.
	finalCl, err := assemble()
	if err != nil {
		return nil, err
	}
	if err := applyRebalance(finalCl, res.MigratedOut, res.MigratedIn, true, cfg.Mint); err != nil {
		finalCl.Close()
		return nil, fmt.Errorf("pre-applying the rebalance: %w", err)
	}
	final := replay(wirePools(finalCl.Addr(), cfg.Load, cfg.Seed, cfg.Wire), w, cfg.InFlight)
	finalCl.Close()
	if final.lost > 0 {
		return nil, fmt.Errorf("final-topology phase lost %d verdicts with no mid-run change", final.lost)
	}
	res.FinalPerSec = final.perSec

	// Phase 3 — live rebalance: same twin, topology changed mid-run —
	// both migrations a third of the way in, the member roll at
	// two-thirds.
	liveCl, err := assemble()
	if err != nil {
		return nil, err
	}
	defer liveCl.Close()
	var rebalanceErr error
	live := replay(wirePools(liveCl.Addr(), cfg.Load, cfg.Seed, cfg.Wire), w, cfg.InFlight,
		drill{after: cfg.Requests / 3, fn: func() {
			if rebalanceErr = applyRebalance(liveCl, res.MigratedOut, res.MigratedIn, false, cfg.Mint); rebalanceErr == nil {
				res.Rebalanced = true
			}
		}},
		drill{after: 2 * cfg.Requests / 3, fn: func() {
			if rebalanceErr != nil {
				return
			}
			if rebalanceErr = liveCl.ReplaceMemberWith(1, 0, cfg.Mint); rebalanceErr == nil {
				res.Replaced = true
			}
		}},
	)
	if rebalanceErr != nil {
		return res, fmt.Errorf("mid-run rebalance failed: %w", rebalanceErr)
	}
	res.LivePerSec = live.perSec
	res.LiveP50, res.LiveP99 = live.p50, live.p99
	res.Lost = live.lost
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

	res.Metrics = live.metrics("rebalance", liveCl)
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
	res.Mismatches = live.mismatches(steady, final)

	if live.lost > 0 {
		return res, fmt.Errorf("live rebalance lost %d of %d verdicts (want zero: staged rollouts must never drop a request)", live.lost, cfg.Requests)
	}
	if res.Mismatches > 0 {
		return res, fmt.Errorf("%d of %d live verdicts match neither the initial- nor the final-topology baseline (want every verdict bit-equal to one of them)", res.Mismatches, cfg.Requests)
	}
	if !res.Rebalanced || !res.Replaced {
		return res, fmt.Errorf("rebalance drill incomplete: migrations=%v replacement=%v", res.Rebalanced, res.Replaced)
	}
	if cfg.MaxP99Ratio > 0 && res.P99Ratio > cfg.MaxP99Ratio {
		return res, fmt.Errorf("live-rebalance p99 %s is %.2fx the steady p99 %s (max %.2fx): the rollout was not absorbed",
			res.LiveP99, res.P99Ratio, res.SteadyP99, cfg.MaxP99Ratio)
	}
	// Invalidation audit on the still-steady cluster.
	return res, res.auditInvalidation(steadyCl, w, cfg.CacheSize)
}

// auditInvalidation warms a fresh cache over the cluster with probes of
// known partition dependencies, runs the two migrations, and asserts
// the exact invalidation arithmetic: Invalidations moves by exactly the
// dependent-entry count (one stale drop per entry, though the rollout
// bumps versions on both partitions), dependents recompute as misses,
// and bystander-only verdicts all survive as hits.
func (r *RebalanceResult) auditInvalidation(cl *controlplane.Cluster, w *workload, cacheSize int) error {
	bank := cl.Bank()
	svc := cl.AuxService(cacheSize)

	// Classify each distinct probe by which partitions its verdict
	// depends on; unknown verdicts depend on every partition.
	var dependents, independents []*fingerprint.Fingerprint
	for _, fp := range w.distinctProbes() {
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
