package experiments

import (
	"context"
	"fmt"
	"reflect"
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
	"repro/internal/stats"
	"repro/internal/vulndb"
)

// Load is the shape every serving experiment replays: the enrolled
// corpus, the fleet workload drawn from it, the gateway clients driving
// it and the serving loop's tuning. Each experiment's config embeds it
// and gives its zero fields that experiment's own defaults.
type Load struct {
	// Types is the number of enrolled device-types. Experiments that
	// drill an enrolment keep it below the full catalog: the next
	// catalog type is held out as the canary.
	Types int
	// Runs is the number of training fingerprints per type (0 means 8).
	Runs int
	// Trees is the per-type forest size (0 means 100).
	Trees int
	// ProbeModels is the number of distinct probe fingerprints per type
	// the workload draws from (0 means 2): a fleet replays few models
	// many times.
	ProbeModels int
	// Requests is the number of identification requests each phase
	// replays.
	Requests int
	// Gateways is the number of concurrent gateway clients; InFlight is
	// each gateway's concurrent in-flight requests — the pipelining that
	// feeds the server's micro-batches.
	Gateways int
	InFlight int
	// BatchSize caps the server's micro-batch flush. Workers is the
	// per-flush Bank.IdentifyBatch worker count (0 means GOMAXPROCS).
	BatchSize int
	Workers   int
	// CacheSize is the verdict cache capacity wherever the experiment
	// runs a cache (0 means iotssp.DefaultCacheSize).
	CacheSize int
	// Seed drives dataset generation, training and workload sampling.
	Seed int64
}

// withDefaults fills l's zero fields from def. Runs, Trees, ProbeModels
// and CacheSize default alike in every experiment, so def leaves them
// zero.
func (l Load) withDefaults(def Load) Load {
	set := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	set(&l.Types, def.Types)
	set(&l.Runs, 8)
	set(&l.Trees, 100)
	set(&l.ProbeModels, 2)
	set(&l.Requests, def.Requests)
	set(&l.Gateways, def.Gateways)
	set(&l.InFlight, def.InFlight)
	set(&l.BatchSize, def.BatchSize)
	set(&l.CacheSize, iotssp.DefaultCacheSize)
	return l
}

// cluster is the serving stack a phase assembles: the load's bank and
// dispatcher tuning over the seeded vulnerability repository, with a
// verdict cache of cacheSize (negative disables it).
func (l Load) cluster(cacheSize int) controlplane.ClusterConfig {
	return controlplane.ClusterConfig{
		Core:      core.BankConfig{Forest: ml.ForestConfig{Trees: l.Trees}, Seed: l.Seed},
		Server:    iotssp.ServerConfig{BatchSize: l.BatchSize, Workers: l.Workers},
		CacheSize: cacheSize,
		DB:        vulndb.Seeded(),
	}
}

// workload is the fleet replay every serving experiment shares: request
// i carries MAC macs[i] and fingerprint probes[model[i]].
type workload struct {
	train  map[string][]*fingerprint.Fingerprint
	probes []*fingerprint.Fingerprint
	model  []int
	macs   []string
	// canary is the catalog type after the enrolled ones, held out with
	// its training prints for an enrolment drill; empty when every
	// catalog type is enrolled.
	canary       string
	canaryPrints []*fingerprint.Fingerprint
}

// buildWorkload samples the training corpus and the replay schedule.
// macOctet is the MACs' second octet, so each experiment's devices are
// its own.
func buildWorkload(l Load, macOctet byte) (*workload, error) {
	ds, err := devices.GenerateDataset(devices.DefaultEnv(), l.Seed, l.Runs+l.ProbeModels)
	if err != nil {
		return nil, err
	}
	names := devices.Names()
	w := &workload{
		train: make(map[string][]*fingerprint.Fingerprint, l.Types),
		model: make([]int, l.Requests),
		macs:  make([]string, l.Requests),
	}
	for _, name := range names[:l.Types] {
		w.train[name] = ds[name][:l.Runs]
		w.probes = append(w.probes, ds[name][l.Runs:]...)
	}
	if l.Types < len(names) {
		w.canary = names[l.Types]
		w.canaryPrints = ds[w.canary][:l.Runs]
	}
	// A small linear congruential stream keeps the replay deterministic
	// without sharing the bank's rand streams.
	state := uint64(l.Seed)*6364136223846793005 + 1442695040888963407
	for i := range w.model {
		state = state*6364136223846793005 + 1442695040888963407
		w.model[i] = int(state>>33) % len(w.probes)
		w.macs[i] = fmt.Sprintf("02:%02x:%02x:%02x:%02x:%02x", macOctet, (i>>24)&0xff, (i>>16)&0xff, (i>>8)&0xff, i&0xff)
	}
	return w, nil
}

// distinctProbes returns the probe models with bit-identical repeats
// dropped: device setup runs can repeat exactly, and duplicates would
// share one cache entry and double-count in invalidation arithmetic.
func (w *workload) distinctProbes() []*fingerprint.Fingerprint {
	var out []*fingerprint.Fingerprint
	seen := make(map[uint64]bool)
	for _, fp := range w.probes {
		if h := fp.Hash(); !seen[h] {
			seen[h] = true
			out = append(out, fp)
		}
	}
	return out
}

// topology deals the training set's types round-robin over shards
// partitions. Partition remote (-1 for none) is served across the wire
// by one shard server; the rest stay in-process.
func topology(train map[string][]*fingerprint.Fingerprint, shards, remote int) controlplane.Topology {
	names := make([]string, 0, len(train))
	for name := range train {
		names = append(names, name)
	}
	parts := make([]controlplane.PartitionSpec, 0, shards)
	for s, types := range controlplane.RoundRobin(names, shards) {
		parts = append(parts, controlplane.PartitionSpec{Types: types, Local: s != remote})
	}
	return controlplane.Topology{Partitions: parts}
}

// pools opens one gateway.Pool toward addr per gateway, seeding gateway
// g's retry jitter with cfg.Seed+g.
func pools(addr string, gateways int, cfg gateway.PoolConfig) []*gateway.Pool {
	out := make([]*gateway.Pool, gateways)
	seed := cfg.Seed
	for g := range out {
		cfg.Seed = seed + int64(g)
		out[g] = gateway.NewPool(addr, cfg)
	}
	return out
}

// wirePools opens the remote-bank experiments' gateway clients: two
// patient, retrying connections per gateway. The gateway leg is always
// the plain wire; the experiments' wire mode applies to shard legs.
func wirePools(addr string, l Load, seed int64) []*gateway.Pool {
	return pools(addr, l.Gateways, gateway.PoolConfig{
		Conns:        2,
		Timeout:      30 * time.Second,
		MaxRetries:   3,
		RetryBackoff: 2 * time.Millisecond,
		Seed:         seed,
	})
}

// warmCache pushes every probe model through one pool toward addr, so
// the service's verdict cache is warm before a timed phase.
func warmCache(addr string, w *workload, seed int64) error {
	pool := gateway.NewPool(addr, gateway.PoolConfig{Conns: 2, Seed: seed})
	defer pool.Close()
	for i, fp := range w.probes {
		if _, err := pool.Identify(context.Background(), fmt.Sprintf("02:f0:00:00:00:%02x", i), fp); err != nil {
			return fmt.Errorf("warming cache: %w", err)
		}
	}
	return nil
}

// drill is one mid-run intervention: fn fires from the request that
// crosses after — the worker claiming request index after runs it
// before issuing that request, so exactly after requests were handed
// out first. Drills fire in slice order, each waiting for the one
// before it to finish; list them by nondecreasing after.
type drill struct {
	after int
	fn    func()
}

// phase summarises one replay.
type phase struct {
	perSec   float64
	p50, p99 time.Duration
	// lost counts requests that returned no verdict.
	lost int
	// verdicts holds every answered request's verdict at its request
	// index (the zero Response where the request was lost).
	verdicts []iotssp.Response
	// clients holds each gateway client's counters after the phase.
	clients []stats.Snapshot
}

// replay drives w closed-loop through one client per gateway, inFlight
// concurrent requests each, handing request indices out from a shared
// cursor. A request that fails or answers for another MAC counts as
// lost, and the phase goes on. replay closes gateway pools when the
// phase ends; their counters stay readable.
func replay[C gateway.Identifier](clients []C, w *workload, inFlight int, drills ...drill) *phase {
	n := len(w.model)
	p := &phase{verdicts: make([]iotssp.Response, n)}
	done := make([]chan struct{}, len(drills))
	for k := range done {
		if k > 0 && drills[k].after < drills[k-1].after {
			panic("experiments: replay drills out of threshold order would deadlock")
		}
		done[k] = make(chan struct{})
	}
	var cursor, lost atomic.Int64
	lats := make([][]time.Duration, len(clients)*inFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for slot := range lats {
		wg.Add(1)
		go func(c C, slot int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				for k, d := range drills {
					if d.after == i {
						if k > 0 {
							<-done[k-1]
						}
						d.fn()
						close(done[k])
					}
				}
				t0 := time.Now()
				resp, err := c.Identify(context.Background(), w.macs[i], w.probes[w.model[i]])
				if err != nil || resp.MAC != w.macs[i] {
					lost.Add(1)
					continue
				}
				p.verdicts[i] = resp
				lats[slot] = append(lats[slot], time.Since(t0))
			}
		}(clients[slot/inFlight], slot)
	}
	wg.Wait()
	p.perSec = float64(n) / time.Since(start).Seconds()
	p.lost = int(lost.Load())
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	p.p50, p.p99 = latPercentiles(all)
	for _, c := range clients {
		switch c := any(c).(type) {
		case *gateway.Pool:
			c.Close()
			p.clients = append(p.clients, c.Counters().Snapshot())
		case *gateway.FleetPool:
			c.Close()
			p.clients = append(p.clients, c.Counters().Snapshot())
		}
	}
	return p
}

// mismatches counts the verdicts that differ from ref's verdict at the
// same request index.
func (p *phase) mismatches(ref *phase) int {
	n := 0
	for i, v := range p.verdicts {
		if !verdictsEqual(v, ref.verdicts[i]) {
			n++
		}
	}
	return n
}

// metrics is the run's single JSON stats snapshot: the cluster's
// managed components, then the phase's gateway clients.
func (p *phase) metrics(experiment string, cl *controlplane.Cluster) *MetricsSnapshot {
	return &MetricsSnapshot{Experiment: experiment, Components: append(cl.Snapshots(), p.clients...)}
}

// hitRate is the verdict cache's hit rate between two counter
// snapshots, typically a warm-up's end and a phase's: lookups served
// without a verdict computation over all lookups.
func hitRate(warm, now iotssp.CacheStats) float64 {
	served := (now.Hits + now.Shared) - (warm.Hits + warm.Shared)
	computed := now.Misses - warm.Misses
	if served+computed == 0 {
		return 0
	}
	return float64(served) / float64(served+computed)
}

// latPercentiles sorts lats in place and returns (p50, p99).
func latPercentiles(lats []time.Duration) (time.Duration, time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2], lats[len(lats)*99/100]
}

// verdictsEqual compares two verdicts ignoring the connection-local
// line echo.
func verdictsEqual(a, b iotssp.Response) bool {
	a.Line, b.Line = 0, 0
	return reflect.DeepEqual(a, b)
}

// WireCost is a remote-bank run's shard-plane wire cost and, with
// compression on, its measured gain over an uncompressed twin.
type WireCost struct {
	// Wire is the run's wire-compression mode.
	Wire iotssp.WireMode
	// BytesPerVerdict is the measured steady-state shard-plane wire cost
	// per verdict: every remote-shard transport's bytes in both
	// directions, off the lineconn byte counters, with handshake and
	// state-transfer bytes carved out.
	BytesPerVerdict float64
	// BytesPerVerdictOff is the uncompressed twin's cost, WireGain the
	// off/on ratio (how many times fewer bytes each verdict costs
	// compressed), and DictHitRate the fingerprint dictionaries' hit
	// rate in the compressed run. All zero with Wire off.
	BytesPerVerdictOff float64
	WireGain           float64
	DictHitRate        float64
}

// priceTwin replays w once against twin — an identically trained
// cluster speaking the plain wire — with no drills, so it prices the
// steady state, then closes it. The twin's verdicts must stay bit-equal
// to ref (compression is lossless or it is a bug); the off/on
// bytes-per-verdict ratio is the gain minGain asserts (0 reports it
// without asserting). on is the compressed run's metrics.
func (c *WireCost) priceTwin(twin *controlplane.Cluster, w *workload, l Load, seed int64, on *MetricsSnapshot, ref *phase, minGain float64) error {
	defer twin.Close()
	c.DictHitRate = on.DictHitRate
	off := replay(wirePools(twin.Addr(), l, seed), w, l.InFlight)
	if off.lost > 0 {
		return fmt.Errorf("wire-off twin lost %d verdicts with no failure injected", off.lost)
	}
	if n := off.mismatches(ref); n > 0 {
		return fmt.Errorf("%d wire-off twin verdicts differ from the reference (want bit-equal)", n)
	}
	c.BytesPerVerdictOff = (&MetricsSnapshot{Components: twin.Snapshots()}).ComputeBytesPerVerdict(len(w.model))
	if c.BytesPerVerdict > 0 {
		c.WireGain = c.BytesPerVerdictOff / c.BytesPerVerdict
	}
	if minGain > 0 && c.WireGain < minGain {
		return fmt.Errorf("wire compression gain %.2fx (off %.1f B/verdict, %s %.1f B/verdict) below the required %.1fx",
			c.WireGain, c.BytesPerVerdictOff, c.Wire, c.BytesPerVerdict, minGain)
	}
	return nil
}

// render prints the wire-cost lines of a remote-bank experiment.
func (c WireCost) render(sb *strings.Builder) {
	if c.BytesPerVerdict > 0 {
		fmt.Fprintf(sb, "shard wire cost: %.1f bytes/verdict (steady state)\n", c.BytesPerVerdict)
	}
	if c.Wire != iotssp.WireOff && c.WireGain > 0 {
		fmt.Fprintf(sb, "wire compression (%s): %.1fx fewer bytes/verdict than the plain wire (%.1f vs %.1f), dict hit rate %.1f%%\n",
			c.Wire, c.WireGain, c.BytesPerVerdict, c.BytesPerVerdictOff, 100*c.DictHitRate)
	}
}
