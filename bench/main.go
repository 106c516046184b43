// Command bench is the verdict ledger: one process that builds each
// serving topology from the public constructors, generates its inputs
// from -seed, drives one device's whole journey (serve, enrol, onboard,
// forward, ingest) under five workload conditions, checks every output
// against an oracle computed before serving, and prints every metric by
// name and unit. README.md in this directory is the catalogue.
//
//	go run ./bench                       all five workloads
//	go run ./bench -workload fleet_miss  one workload
//	go run ./bench -trace 1              the per-layer run, writes spans
//	go run ./bench -aa                   everything twice, compared to the bounds
//
// The last line of standard output of a single-workload run is one JSON
// object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	setupRepeats = 3   // setup_s is the median of this many full set-ups
	traceScale   = 0.5 // the traced journey runs at this share of -seconds
	spanDir      = ".bench_build"
)

func main() {
	workload := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 1, "drives dataset, jitter, MACs and schedules")
	seconds := flag.Float64("seconds", 22, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass and writes the span file")
	aa := flag.Bool("aa", false, "run the full set twice and compare each metric with its bound")
	flag.Parse()

	run := specs
	if *workload != "" {
		sp := specByName(*workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		run = []spec{*sp}
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}

	ok := true
	for i := range run {
		sp := &run[i]
		r, err := runWorkload(sp, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		catalogue := endToEnd
		if *trace == 1 {
			catalogue = perLayer
		}
		if *aa {
			again, err := runWorkload(sp, *seed, *seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (second run): %v\n", sp.name, err)
				os.Exit(1)
			}
			ok = compareAA(sp, r, again) && again.correct() && ok
		}
		printTable(sp, r, *trace == 1)
		ok = r.correct() && ok
		fmt.Println(resultLine(r, catalogue))
	}
	if !ok {
		os.Exit(1)
	}
}

func (r *results) correct() bool { return r.failed == 0 && r.attempted > 0 }

// runWorkload sets the workload up, runs the journey and returns its
// metrics. The untraced run sets up setupRepeats times and reports the
// median as setup_s; the last set-up is the one measured.
func runWorkload(sp *spec, seed int64, seconds float64, traced bool) (*results, error) {
	if traced {
		return runTraced(sp, seed, seconds)
	}
	var t *topology
	setups := make([]float64, 0, setupRepeats)
	for k := 0; k < setupRepeats; k++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", k, err)
			}
		}
		start := time.Now()
		in, err := buildInputs(sp, seed)
		if err != nil {
			return nil, err
		}
		if t, err = buildTopology(sp, in, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r := runJourney(t, seconds)
	r.set("setup_s", quantile(setups, 0.5), len(setups))
	return r, t.close()
}

// runTraced is the per-layer run: one closed pass with the recorder off
// (the baseline for trace.overhead_share and the runtime.* numbers),
// the whole journey with spans on, then the isolated replay of the
// workload's inputs through each leaf function.
func runTraced(sp *spec, seed int64, seconds float64) (*results, error) {
	rec := newRecorder()
	start := time.Now()
	in, err := buildInputs(sp, seed)
	if err != nil {
		return nil, err
	}
	t, err := buildTopology(sp, in, rec)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start).Seconds()

	var baseline closedTally
	t.closedSlice(&baseline, share(sp.closed, seconds*traceScale))
	base := newResults()
	baseline.report(base, false)
	rec.on.Store(true)
	r := runJourney(t, seconds*traceScale)
	rec.on.Store(false)
	r.ops(base.attempted, base.failed, "untraced closed-phase requests")
	for _, name := range []string{"runtime.allocs_per_op", "runtime.alloc_bytes_per_op", "runtime.cpu_s_per_kop"} {
		r.set(name, base.v[name], base.n[name])
	}
	if b := base.v["verdicts_per_s"]; b > 0 {
		r.set("trace.overhead_share", 1-r.v["verdicts_per_s"]/b, r.n["verdicts_per_s"])
	}
	r.set("setup_s", setup, 1)
	r.set("ml.train_ms_per_forest", t.trainMs, len(in.train))
	r.set("controlplane.assemble_ms", t.asmMs, 1)
	if t.tShard != nil {
		if n := t.tShard.classifyCalls.Load(); n > 0 {
			r.set("iotssp.remoteshard_classify_ms_per_batch", float64(t.tShard.classifyNs.Load())/float64(n)/1e6, int(n))
		}
		if n := t.tShard.discriminateCalls.Load(); n > 0 {
			r.set("iotssp.remoteshard_discriminate_ms_per_call", float64(t.tShard.discriminateNs.Load())/float64(n)/1e6, int(n))
		}
	}
	if err := measureLayers(t, r); err != nil {
		return nil, err
	}

	path := filepath.Join(spanDir, "spans-"+sp.name+".json")
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("# %s: %d spans written to %s (%d dropped at the %d cap)\n", sp.name, len(rec.spans), path, rec.dropped, maxSpans)
	fmt.Printf("# %-28s %10s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, lt := range rec.selfTimes() {
		fmt.Printf("# %-28s %10d %12.1f %12.1f\n", lt.name, lt.count, ms(lt.total), ms(lt.self))
	}
	return r, t.close()
}

// printTable prints the run's metrics with unit and the sample count
// behind each. The untraced run prints the end-to-end metrics and the
// layer counters it collected on the way; the traced run prints only
// layer metrics, because end-to-end numbers come from untraced runs.
func printTable(sp *spec, r *results, traced bool) {
	fmt.Printf("# workload %s (gomaxprocs %d): %d operations attempted, %d failed\n", sp.name, runtime.GOMAXPROCS(0), r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Printf("# PROBLEM: %s\n", p)
	}
	cats := [][]metricDef{endToEnd, perLayer}
	if traced {
		cats = cats[1:]
	}
	for _, cat := range cats {
		for _, m := range cat {
			if v, ok := r.v[m.name]; ok {
				fmt.Printf("# %-44s %16.4f %-6s n=%d\n", m.name, v, m.unit, r.n[m.name])
			}
		}
	}
	if feed, ok := r.v["gateway.feed_ms_per_device"]; ok {
		sum := feed + r.v["gateway.identify_ms_per_device"] + r.v["gateway.apply_ms_per_device"]
		fmt.Printf("# onboard ledger: feed + identify + apply = %.3f ms against onboard_p50_ms %.3f ms (%.1f%%)\n", sum, r.v["onboard_p50_ms"], 100*sum/r.v["onboard_p50_ms"])
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line: every metric of the
// catalogue, present or not (a layer that is not on the workload's path
// reports 0).
func resultLine(r *results, catalogue []metricDef) string {
	metrics := make(map[string]jsonMetric, len(catalogue))
	for _, m := range catalogue {
		v := r.v[m.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = 0
		}
		metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// compareAA prints, per end-to-end metric, how much worse the second
// run of the same code read than the first, beside the metric's bound.
func compareAA(sp *spec, a, b *results) bool {
	ok := true
	fmt.Printf("# A/A %s\n", sp.name)
	for _, m := range endToEnd {
		va, vb := a.v[m.name], b.v[m.name]
		worse := (vb - va) / va
		if m.better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if math.Abs(worse) > m.bound {
			verdict = "BREACH"
			ok = false
		}
		fmt.Printf("# A/A %-24s first %14.4f second %14.4f worse by %+7.2f%% bound %5.1f%% %s\n", m.name, va, vb, 100*worse, 100*m.bound, verdict)
	}
	return ok
}
