// Command sentinel-eval regenerates the identification experiments of
// the paper's evaluation (§VI-B): Fig. 5 (per-type accuracy), Table III
// (confusion matrix of the ten low-accuracy types), Table IV (timing
// breakdown), the design-choice ablations, and the serving-scale
// experiments (service: multi-gateway load; fleet: sharded bank behind
// replicated backends with a mid-run backend kill; distributed: one
// logical bank with a shard served across the wire, bit-equal to the
// all-local baseline through a mid-run shard restart; replicated: the
// remote partition behind a 2+-member shard group whose mid-run member
// kill+revive costs zero verdicts and no retry-latency spike;
// rebalance: live topology changes through the control plane — two
// device types migrated between shards and a shard-group member
// replaced mid-run, with zero lost verdicts, every verdict bit-equal
// to a steady-topology twin, and exactly-once cache invalidation;
// dataplane: end-to-end capture-to-verdict packets/sec through the
// worker-per-core ingestion pipeline versus the serial monitor, with
// verdicts asserted equal and the hot path's allocations measured).
//
// Usage:
//
//	sentinel-eval -experiment fig5            # default paper protocol
//	sentinel-eval -experiment all -repeats 2  # faster smoke run
//	sentinel-eval -experiment fleet -shards 4 -backends 3
//	sentinel-eval -experiment distributed -shards 2
//	sentinel-eval -experiment distributed -wire dict       # dictionary wire + off-twin gain check
//	sentinel-eval -experiment replicated -replicas 2 -wire dict
//	sentinel-eval -experiment rebalance -replicas 2 -mint snapshot
//	sentinel-eval -experiment dataplane -workers 8
//
// The -wire flag (off|dict) turns on per-connection fingerprint
// dictionaries on the shard legs of the distributed, replicated and
// rebalance experiments; the gateway legs always speak the plain
// identify wire. The distributed and replicated experiments then also
// replay a wire-off twin phase, assert its verdicts bit-equal, and fail unless the measured
// steady-state bytes-per-verdict gain reaches -min-wire-gain (default
// 5x).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/controlplane"
	"repro/internal/experiments"
	"repro/internal/iotssp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sentinel-eval:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sentinel-eval", flag.ContinueOnError)
	var (
		experiment  = fs.String("experiment", "all", "fig5|table3|table4|throughput|service|fleet|distributed|replicated|rebalance|dataplane|ablations|all")
		runs        = fs.Int("runs", 20, "setup captures per device-type")
		folds       = fs.Int("folds", 10, "cross-validation folds")
		repeats     = fs.Int("repeats", 10, "cross-validation repetitions")
		trees       = fs.Int("trees", 100, "random-forest size")
		seed        = fs.Int64("seed", 1, "experiment seed")
		shards      = fs.Int("shards", 2, "classifier-bank shards (fleet experiment)")
		backends    = fs.Int("backends", 2, "service replicas (fleet experiment)")
		replicas    = fs.Int("replicas", 2, "shard-group members (replicated experiment)")
		minScaling  = fs.Float64("min-scaling", 0, "fail the fleet experiment unless fleet/baseline throughput reaches this ratio (0 = report only)")
		workers     = fs.Int("workers", 0, "dataplane pipeline workers (0 = GOMAXPROCS)")
		minSpeedup  = fs.Float64("min-speedup", -1, "fail the dataplane experiment unless pipeline/serial packets/sec reaches this ratio (0 = report only; -1 = 2.0 when GOMAXPROCS >= 4, else report only)")
		maxP99Ratio = fs.Float64("max-p99-ratio", -1, "fail the replicated/rebalance experiments unless the drill run's p99 stays within this multiple of the steady run's (0 = report only; -1 = 2.0 when GOMAXPROCS >= 4, else report only)")
		mint        = fs.String("mint", "auto", "member-replacement minting strategy for the rebalance experiment: auto|snapshot|replay")
		wire        = fs.String("wire", "off", "shard-leg wire for the distributed/replicated/rebalance experiments: off|dict")
		minWireGain = fs.Float64("min-wire-gain", -1, "fail the distributed/replicated experiments unless wire-off/wire-on steady-state bytes per verdict reaches this ratio (0 = report only; -1 = 5.0 when -wire is on, else off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wireMode, err := iotssp.ParseWireMode(*wire)
	if err != nil {
		return err
	}
	wireGain := *minWireGain
	if wireGain < 0 {
		wireGain = 0
		if wireMode != iotssp.WireOff {
			wireGain = 5.0
		}
	}
	var mintStrategy controlplane.MintStrategy
	switch *mint {
	case "auto":
		mintStrategy = controlplane.MintAuto
	case "snapshot":
		mintStrategy = controlplane.MintSnapshot
	case "replay":
		mintStrategy = controlplane.MintReplay
	default:
		return fmt.Errorf("unknown mint strategy %q (want auto|snapshot|replay)", *mint)
	}

	cfg := experiments.IdentConfig{
		Runs: *runs, Folds: *folds, Repeats: *repeats, Trees: *trees, Seed: *seed,
	}
	// The serving experiments train on half the runs and hold the rest of
	// their workload shape at each experiment's defaults.
	load := experiments.Load{Runs: *runs / 2, Trees: *trees, Seed: *seed}

	wantCV := false
	for _, e := range []string{"fig5", "table3", "all"} {
		if *experiment == e {
			wantCV = true
		}
	}

	if wantCV {
		fmt.Printf("running %d-fold CV × %d on %d×%d fingerprints (trees=%d, seed=%d)…\n",
			cfg.Folds, cfg.Repeats, 27, cfg.Runs, cfg.Trees, cfg.Seed)
		res, err := experiments.RunIdentification(cfg)
		if err != nil {
			return err
		}
		if *experiment == "fig5" || *experiment == "all" {
			fmt.Println()
			fmt.Print(res.RenderFig5())
		}
		if *experiment == "table3" || *experiment == "all" {
			fmt.Println()
			fmt.Print(res.RenderTable3())
		}
		fmt.Printf("\nmulti-match fraction: %.2f (paper: 0.55); mean edit-distance computations per identification: %.1f (paper: 7)\n",
			res.MultiMatchFraction, res.DiscriminationsPerTest)
	}

	if *experiment == "table4" || *experiment == "all" {
		fmt.Println()
		res, err := experiments.RunTable4(cfg)
		if err != nil {
			return err
		}
		fmt.Print(res.RenderTable4())
	}

	if *experiment == "throughput" || *experiment == "all" {
		fmt.Println()
		res, err := experiments.RunThroughput(experiments.ThroughputConfig{
			Runs: *runs, Trees: *trees, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(res.RenderThroughput())
	}

	if *experiment == "service" || *experiment == "all" {
		fmt.Println()
		res, err := experiments.RunService(experiments.ServiceConfig{Load: load})
		if err != nil {
			return err
		}
		fmt.Print(res.RenderService())
	}

	if *experiment == "fleet" || *experiment == "all" {
		fmt.Println()
		res, err := experiments.RunFleet(experiments.FleetConfig{
			Load:       load,
			Shards:     *shards,
			Backends:   *backends,
			MinScaling: *minScaling,
		})
		if err != nil {
			return err
		}
		fmt.Print(res.RenderFleet())
	}

	if *experiment == "distributed" || *experiment == "all" {
		fmt.Println()
		res, err := experiments.RunDistributed(experiments.DistributedConfig{
			Load:        load,
			Shards:      *shards,
			Wire:        wireMode,
			MinWireGain: wireGain,
		})
		if err != nil {
			return err
		}
		fmt.Print(res.RenderDistributed())
	}

	if *experiment == "replicated" || *experiment == "all" {
		fmt.Println()
		ratio := *maxP99Ratio
		if ratio < 0 {
			// The latency assertion needs parallel hardware (like the fleet
			// experiment's scaling gate): on a starved box scheduler noise
			// dwarfs the failover cost being measured.
			ratio = 0
			if runtime.GOMAXPROCS(0) >= 4 {
				ratio = 2.0
			}
		}
		res, err := experiments.RunReplicatedShards(experiments.ReplicatedConfig{
			Load:        load,
			Shards:      *shards,
			Replicas:    *replicas,
			MaxP99Ratio: ratio,
			Wire:        wireMode,
			MinWireGain: wireGain,
		})
		if err != nil {
			return err
		}
		fmt.Print(res.RenderReplicated())
	}

	if *experiment == "rebalance" || *experiment == "all" {
		fmt.Println()
		ratio := *maxP99Ratio
		if ratio < 0 {
			// Same parallel-hardware gate as the replicated experiment.
			ratio = 0
			if runtime.GOMAXPROCS(0) >= 4 {
				ratio = 2.0
			}
		}
		res, err := experiments.RunRebalance(experiments.RebalanceConfig{
			Load:        load,
			Replicas:    *replicas,
			MaxP99Ratio: ratio,
			Mint:        mintStrategy,
			Wire:        wireMode,
		})
		if err != nil {
			return err
		}
		fmt.Print(res.RenderRebalance())
	}

	if *experiment == "dataplane" || *experiment == "all" {
		fmt.Println()
		speedup := *minSpeedup
		if speedup < 0 {
			// Like the replicated experiment's latency gate: asserting a
			// parallel speedup needs parallel hardware.
			speedup = 0
			if runtime.GOMAXPROCS(0) >= 4 {
				speedup = 2.0
			}
		}
		res, err := experiments.RunDataplane(experiments.DataplaneConfig{
			DeviceRuns: *runs / 5,
			TrainRuns:  *runs / 2,
			Trees:      *trees,
			Workers:    *workers,
			MinSpeedup: speedup,
			Seed:       *seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(res.RenderDataplane())
	}

	if *experiment == "ablations" || *experiment == "all" {
		abCfg := cfg
		if abCfg.Repeats > 2 {
			abCfg.Repeats = 2 // ablations sweep many configs; cap the cost
		}
		for _, f := range []func() (*experiments.AblationResult, error){
			func() (*experiments.AblationResult, error) { return experiments.RunAblationFPrimeLength(abCfg, nil) },
			func() (*experiments.AblationResult, error) { return experiments.RunAblationNegativeRatio(abCfg, nil) },
			func() (*experiments.AblationResult, error) { return experiments.RunAblationForestSize(abCfg, nil) },
			func() (*experiments.AblationResult, error) { return experiments.RunAblationEditDistanceOnly(abCfg) },
		} {
			res, err := f()
			if err != nil {
				return err
			}
			fmt.Println()
			fmt.Print(res.Render())
		}
	}

	switch *experiment {
	case "fig5", "table3", "table4", "throughput", "service", "fleet", "distributed", "replicated", "rebalance", "dataplane", "ablations", "all":
		return nil
	default:
		return fmt.Errorf("unknown experiment %q (want %s)", *experiment,
			strings.Join([]string{"fig5", "table3", "table4", "throughput", "service", "fleet", "distributed", "replicated", "rebalance", "dataplane", "ablations", "all"}, "|"))
	}
}
