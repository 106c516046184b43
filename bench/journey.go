package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
	"repro/internal/lineconn"
)

// results collects one run's metric values, the sample count behind
// each, and the operations attempted and failed.
type results struct {
	v         map[string]float64
	n         map[string]int
	attempted int
	failed    int
	problems  []string
}

func newResults() *results {
	return &results{v: make(map[string]float64), n: make(map[string]int)}
}

func (r *results) set(name string, value float64, samples int) {
	r.v[name] = value
	r.n[name] = samples
}

func (r *results) ops(attempted, failed int, what string) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d %s failed", failed, attempted, what))
	}
}

// streamSource serves the workload's request stream to a generator.
type streamSource struct{ t *topology }

func (s streamSource) request(i uint64) (string, *fingerprint.Fingerprint) {
	return requestMAC(s.t.in.seed, i), s.t.in.stream[s.t.in.index(i)]
}

func (s streamSource) correct(i uint64, resp iotssp.Response) bool {
	idx := s.t.in.index(i)
	want := s.t.streamOracle[idx]
	if want.matches(resp) {
		return true
	}
	msg := fmt.Sprintf("request %d (stream fingerprint %d): verdict %+v, oracle %+v", i, idx, resp, want)
	s.t.firstWrong.CompareAndSwap(nil, &msg)
	return false
}

// wireStats sums every wire client's transport counters: the gateway
// pools, plus the front-to-shard client on the remote topology.
func (t *topology) wireStats() (pools, shard lineconn.Stats) {
	for _, p := range t.pools {
		s := p.Counters().Transport
		pools.BytesWritten += s.BytesWritten
		pools.BytesRead += s.BytesRead
		pools.Dials += s.Dials
		pools.Reconnects += s.Reconnects
		pools.DroppedCorrelations += s.DroppedCorrelations
	}
	if t.remote != nil {
		shard = t.remote.Counters().Transport
	}
	return pools, shard
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func share(part, seconds float64) time.Duration {
	return time.Duration(part * seconds * float64(time.Second))
}

// The system counters a closed slice reads before and after itself.
const (
	cWritten = iota // pool wire bytes out
	cRead           // pool wire bytes in
	cShard          // front-to-shard wire bytes, both ways
	cBatches
	cBatched
	cOverloaded
	cServed // cache hits + shared
	cMisses
	cShared
	cEvictions
	cMallocs
	cAllocBytes
	cCPU    // process user + system seconds
	cBusyNs // inside the wrapped iotssp.Bank (traced builds)
	nCounters
)

type counters [nCounters]float64

func (t *topology) counters() counters {
	var c counters
	pools, shard := t.wireStats()
	c[cWritten], c[cRead] = float64(pools.BytesWritten), float64(pools.BytesRead)
	c[cShard] = float64(shard.BytesWritten + shard.BytesRead)
	srv := t.srv.Counters()
	c[cBatches], c[cBatched], c[cOverloaded] = float64(srv.Batches), float64(srv.BatchedRequests), float64(srv.Overloaded)
	c[cServed], c[cMisses] = float64(srv.Cache.Hits+srv.Cache.Shared), float64(srv.Cache.Misses)
	c[cShared], c[cEvictions] = float64(srv.Cache.Shared), float64(srv.Cache.Evictions)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c[cMallocs], c[cAllocBytes] = float64(mem.Mallocs), float64(mem.TotalAlloc)
	c[cCPU] = cpuSeconds()
	if t.tBank != nil {
		c[cBusyNs] = float64(t.tBank.busyNs.Load())
	}
	return c
}

// closedTally pools the closed slices of a run.
type closedTally struct {
	ok, failed int
	elapsed    time.Duration
	rates      []float64 // correct verdicts per second, one per rateWindow
	rttMs      []float64
	delta      counters
}

// closedSlice keeps genInFlight requests pipelined on every pool for
// dur and adds what it measured to the tally.
func (t *topology) closedSlice(tally *closedTally, dur time.Duration) {
	runtime.GC()
	before := t.counters()
	res := closedLoop(t.idents, genInFlight, dur, streamSource{t}, &t.next)
	after := t.counters()
	for i := range after {
		tally.delta[i] += after[i] - before[i]
	}
	tally.ok += res.ok
	tally.failed += res.failed
	tally.elapsed += res.elapsed
	tally.rates = append(tally.rates, res.rates...)
	tally.rttMs = append(tally.rttMs, res.rttMs...)
}

// report turns the pooled closed slices into throughput, wire cost and
// the layer counters of the closed phase.
func (c *closedTally) report(r *results, traced bool) {
	r.ops(c.ok+c.failed, c.failed, "closed-phase requests")
	if c.ok == 0 {
		return
	}
	ok, d := float64(c.ok), c.delta
	r.set("verdicts_per_s", quantile(c.rates, 0.5), c.ok)
	r.set("wire_bytes_per_verdict", (d[cWritten]+d[cRead]+d[cShard])/ok, c.ok)
	r.set("lineconn.bytes_written_per_req", d[cWritten]/ok, c.ok)
	r.set("lineconn.bytes_read_per_req", d[cRead]/ok, c.ok)
	r.set("gateway.pool_rtt_p50_ms", quantile(c.rttMs, 0.5), len(c.rttMs))
	if d[cBatches] > 0 {
		r.set("iotssp.server_mean_batch", d[cBatched]/d[cBatches], int(d[cBatches]))
	}
	r.set("iotssp.server_overloaded", d[cOverloaded], c.ok)
	lookups := d[cServed] + d[cMisses]
	r.set("iotssp.cache_hit_rate", d[cServed]/lookups, int(lookups))
	r.set("iotssp.cache_shared", d[cShared], int(lookups))
	r.set("iotssp.cache_evictions", d[cEvictions], int(lookups))
	if traced {
		r.set("iotssp.bank_busy_share", d[cBusyNs]/float64(c.elapsed), c.ok)
	}
	r.set("runtime.allocs_per_op", d[cMallocs]/ok, c.ok)
	r.set("runtime.alloc_bytes_per_op", d[cAllocBytes]/ok, c.ok)
	r.set("runtime.cpu_s_per_kop", d[cCPU]/(ok/1000), c.ok)
}

// openTally pools the open-loop slices of one phase.
type openTally struct {
	name         string
	sent, failed int
	latMs, lagMs []float64
	p99s         []float64 // one per window of every slice
	inflightEnd  int
	growing      []string
}

func (o *openTally) add(res openResult) {
	o.sent += res.sent
	o.failed += res.failed
	o.latMs = append(o.latMs, res.latMs...)
	o.lagMs = append(o.lagMs, res.lagMs...)
	o.p99s = append(o.p99s, res.windowP99s()...)
	o.inflightEnd = res.inflight[3]
	if res.backlogGrowing() {
		o.growing = append(o.growing, fmt.Sprintf("%s phase: backlog grew through every quarter of the schedule (in flight %v)", o.name, res.inflight))
	}
}

// runJourney drives every stage of the device journey against a built
// topology for about seconds of measuring and fills in the end-to-end
// metrics plus the layer metrics that are counters of the run itself.
//
// The timed stages run as journeyRounds interleaved slices rather than
// one block each, every round onboards the devices into a fresh gateway,
// and every metric is a quantile over the windows (or the samples) of
// all its slices: the shared two-core host slows down for seconds at a
// time, and a stage measured in one block takes its whole reading from
// whatever the host did in that block.
func runJourney(t *topology, seconds float64) *results {
	r := newResults()
	sp := t.sp
	clients := t.idents
	src := streamSource{t}
	slice := func(part float64) time.Duration { return share(part, seconds) / journeyRounds }

	peak := watchGoroutines()
	var memStart runtime.MemStats
	runtime.ReadMemStats(&memStart)

	var closed closedTally
	open, churn := openTally{name: "open"}, openTally{name: "churn"}
	var enrollMs []float64
	enrollFailed := 0
	forward := stageRate{what: "forwarded packets"}
	ingest := stageRate{what: "ingested captures"}
	var onboard onboardTally
	var invalidations uint64

	for round := 0; round < journeyRounds; round++ {
		t.closedSlice(&closed, slice(sp.closed))

		runtime.GC()
		open.add(openLoop(clients, sp.openRate, slice(sp.open), src, &t.next))

		runtime.GC()
		invalBefore := t.svc.CacheStats().Invalidations
		ctx, stop := context.WithCancel(context.Background())
		var writer sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			ms, failed := churnWriter(ctx, t.writer, t.in.synthetic, sp.churnEvery)
			enrollMs = append(enrollMs, ms...)
			enrollFailed += failed
		}()
		churn.add(openLoop(clients, sp.openRate, slice(sp.churn), src, &t.next))
		stop()
		writer.Wait()
		invalidations += t.svc.CacheStats().Invalidations - invalBefore

		runtime.GC()
		if round > 0 {
			t.newGateway()
		}
		t.onboardRound(&onboard)
		t.forwardSlice(&forward, slice(sp.forward))
		runtime.GC()
		t.ingestSlice(&ingest, slice(sp.ingest))
	}
	t.accuracyStage(r)
	onboard.report(r, t.gw.Table().Len())

	closed.report(r, t.tBank != nil)
	r.set("iotssp.server_max_batch", float64(t.srv.Counters().MaxBatch), 1)
	for _, ph := range []*openTally{&open, &churn} {
		r.ops(ph.sent, ph.failed, ph.name+"-phase requests")
		r.failed += len(ph.growing)
		r.problems = append(r.problems, ph.growing...)
	}
	r.ops(len(enrollMs)+enrollFailed, enrollFailed, "enrolments")
	r.set("enroll_p50_ms", quantile(enrollMs, 0.5), len(enrollMs))
	r.set("iotssp.cache_invalidations", float64(invalidations), len(enrollMs))

	lat := open
	if sp.latencyUnderChurn {
		lat = churn
	}
	r.set("verdict_p50_ms", quantile(lat.latMs, 0.5), lat.sent)
	r.set("verdict_p99_ms", quantile(lat.p99s, 0.25), lat.sent)
	r.set("loadgen.sent", float64(lat.sent), lat.sent)
	r.set("loadgen.lag_p99_ms", quantile(lat.lagMs, 0.99), lat.sent)
	r.set("loadgen.inflight_at_end", float64(lat.inflightEnd), 1)
	r.set("loadgen.slo_miss_share", sloMissShare(lat.latMs), lat.sent)
	r.set("loadgen.p999_ms", quantile(lat.latMs, 0.999), lat.sent)

	r.ops(forward.units, forward.failed, forward.what)
	r.set("forward_pkts_per_s", quantile(forward.rates, 0.5), forward.units)
	r.set("gateway.bridge_ns_per_pkt", 1e9/quantile(forward.rates, 0.5), forward.units)
	if forward.lookups > 0 {
		r.set("flowtable.cache_hit_rate", forward.cacheHits/forward.lookups, int(forward.lookups))
	}
	r.ops(ingest.checked, ingest.failed, ingest.what)
	r.set("ingest_pkts_per_s", quantile(ingest.rates, 0.5), ingest.units)
	r.set("dataplane.captures", float64(ingest.checked), ingest.runs)

	pools, _ := t.wireStats()
	r.set("lineconn.dials", float64(pools.Dials), 1)
	r.set("lineconn.reconnects", float64(pools.Reconnects), 1)
	r.set("lineconn.dropped_correlations", float64(pools.DroppedCorrelations), 1)
	var retries, failures uint64
	for _, p := range append(t.pools, t.gwPool) {
		c := p.Counters()
		retries += c.Retries
		failures += c.Failures
	}
	r.set("gateway.pool_retries", float64(retries), 1)
	r.set("gateway.pool_failures", float64(failures), 1)
	if t.remote != nil {
		c := t.remote.Counters()
		r.set("iotssp.remoteshard_retries", float64(c.Retries), 1)
		r.set("iotssp.remoteshard_failures", float64(c.Failures), 1)
		if lookups := c.Transport.DictHits + c.Transport.DictMisses; lookups > 0 {
			r.set("fingerprint.dict_hit_rate", float64(c.Transport.DictHits)/float64(lookups), int(lookups))
		}
	}

	if msg := t.firstWrong.Load(); msg != nil {
		r.problems = append(r.problems, "first wrong verdict: "+*msg)
	}

	var memEnd runtime.MemStats
	runtime.ReadMemStats(&memEnd)
	r.set("runtime.gc_pause_ms", float64(memEnd.PauseTotalNs-memStart.PauseTotalNs)/1e6, int(memEnd.NumGC-memStart.NumGC))
	r.set("runtime.heap_inuse_mb", float64(memEnd.HeapInuse)/(1<<20), 1)
	r.set("runtime.goroutines_peak", float64(peak()), 1)
	r.set("runtime.gomaxprocs", float64(runtime.GOMAXPROCS(0)), 1)
	return r
}

// churnWriter alternates Enroll and Remove of the synthetic type every
// period until ctx ends, and leaves the bank as it found it.
func churnWriter(ctx context.Context, bank *core.Bank, prints []*fingerprint.Fingerprint, every time.Duration) (enrollMs []float64, failed int) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	enrolled := false
	for {
		select {
		case <-ctx.Done():
			if enrolled && bank.Remove(churnType) != nil {
				failed++
			}
			return enrollMs, failed
		case <-tick.C:
		}
		if enrolled {
			if bank.Remove(churnType) != nil {
				failed++
			}
			enrolled = false
			continue
		}
		start := time.Now()
		if bank.Enroll(churnType, prints) != nil {
			failed++
			continue
		}
		enrollMs = append(enrollMs, ms(time.Since(start)))
		enrolled = true
	}
}

// onboardTally pools the onboardings of every round.
type onboardTally struct {
	total                 []float64 // ms per device, first setup packet fed to rule readable
	feed, identify, apply []float64 // traced builds: the three parts of total
	failed                int
}

// onboardRound joins every device to the round's fresh gateway, one at
// a time: setup packets through the bridge, Tick to end the setup phase,
// Drain for the verdict, then the installed rule is read back and
// checked against the oracle.
func (t *topology) onboardRound(o *onboardTally) {
	gw := t.gw
	bridge := gw.Bridge()
	for i := range t.in.devices {
		d := &t.in.devices[i]
		if t.tGwID != nil {
			t.tGwID.window()
		}
		start := time.Now()
		for _, p := range d.setup {
			bridge(p.Timestamp, nil, p)
		}
		gw.Tick(d.setup[len(d.setup)-1].Timestamp.Add(time.Minute))
		gw.Drain()
		done := time.Now()
		o.total = append(o.total, ms(done.Sub(start)))
		if t.tGwID != nil {
			first, last := t.tGwID.window()
			o.feed = append(o.feed, ms(first.Sub(start)))
			o.identify = append(o.identify, ms(last.Sub(first)))
			o.apply = append(o.apply, ms(done.Sub(last)))
		}

		rule, ok := gw.Engine().RuleFor(d.mac)
		want := t.deviceOracle[i]
		ev := gw.Events[len(gw.Events)-1]
		// A device whose identification never landed still holds the
		// strict quarantine rule: only a verdict event without error
		// releases it.
		released := gw.Pending() == 0 && ev.MAC == d.mac && ev.Err == nil
		if !ok || !released || rule.Level.String() != want.level || rule.DeviceType != want.typ {
			o.failed++
		}
	}
}

func (o *onboardTally) report(r *results, rules int) {
	n := len(o.total)
	r.ops(n, o.failed, "device onboardings")
	r.set("onboard_p50_ms", quantile(o.total, 0.5), n)
	r.set("onboard_p90_ms", quantile(o.total, 0.9), n)
	r.set("flowtable.rules", float64(rules), 1)
	if len(o.feed) > 0 {
		r.set("gateway.feed_ms_per_device", quantile(o.feed, 0.5), n)
		r.set("gateway.identify_ms_per_device", quantile(o.identify, 0.5), n)
		r.set("gateway.apply_ms_per_device", quantile(o.apply, 0.5), n)
	}
}

// stageRate pools the slices of a single-goroutine throughput stage.
type stageRate struct {
	what   string
	rates  []float64 // units per second, one per rateWindow
	units  int       // packets
	failed int
	// ingest only: captures checked and replays run
	checked, runs int
	// forward only: flow-table lookups and microflow-cache hits
	lookups, cacheHits float64
}

// forwardSlice pushes the onboarded devices' standby traffic through
// the bridge with every rule installed and checks each forwarding
// decision against the enforcement engine's.
func (t *topology) forwardSlice(st *stageRate, dur time.Duration) {
	gw := t.gw
	bridge := gw.Bridge()
	pkts := t.in.standby
	if t.forwardAllow == nil {
		t.forwardAllow = make([]bool, len(pkts))
		for i, p := range pkts {
			t.forwardAllow[i] = gw.Engine().DecidePacket(p).Allow
		}
	}
	before := gw.Table().Stats()
	meter := rateMeter{start: time.Now()}
	for now := meter.start; now.Sub(meter.start) < dur; {
		for i, p := range pkts {
			if deliver, _ := bridge(p.Timestamp, nil, p); deliver != t.forwardAllow[i] {
				st.failed++
			}
		}
		st.units += len(pkts)
		now = time.Now()
		meter.add(now, len(pkts))
	}
	after := gw.Table().Stats()
	st.rates = append(st.rates, meter.rates()...)
	st.lookups += float64(after.Lookups - before.Lookups)
	st.cacheHits += float64(after.CacheHits - before.CacheHits)
}

// ingestSlice replays the capture file through the dataplane into the
// in-process service back to back and checks every capture's verdict.
func (t *topology) ingestSlice(st *stageRate, dur time.Duration) {
	ident := gateway.LocalService{Svc: t.svc}
	first := true
	meter := rateMeter{start: time.Now()}
	for now := meter.start; now.Sub(meter.start) < dur || first; first = false {
		st.runs++
		st.checked += t.in.pcapDevices
		src, err := dataplane.NewPcapSource(bytes.NewReader(t.in.pcap))
		if err != nil {
			st.failed += t.in.pcapDevices
			break
		}
		verdicts, res, err := dataplane.RunIdentify(context.Background(), dataplane.PipelineConfig{}, src, ident, 0)
		if err != nil || len(verdicts) != t.in.pcapDevices {
			st.failed += t.in.pcapDevices
			break
		}
		now = time.Now()
		meter.add(now, int(res.Stats.Frames))
		st.units += int(res.Stats.Frames)
		for _, v := range verdicts {
			want, ok := t.pcapOracle[v.Capture.MAC.String()]
			if v.Err != nil || !ok || !want.matches(v.Response) {
				st.failed++
			}
		}
	}
	st.rates = append(st.rates, meter.rates()...)
}

// accuracyStage sends the held-out catalog probes through the served
// path and scores verdicts against the ground-truth type.
func (t *topology) accuracyStage(r *results) {
	right, failed := 0, 0
	for i, fp := range t.in.probes {
		resp, err := t.idents[i%len(t.idents)].Identify(context.Background(), requestMAC(t.in.seed, uint64(0xfd000000+i)), fp)
		if err != nil || resp.Error != "" {
			failed++
			continue
		}
		if resp.DeviceType == t.in.truth[i] {
			right++
		}
	}
	r.ops(len(t.in.probes), failed, "accuracy probes")
	acc := float64(right) / float64(len(t.in.probes))
	r.set("ident_accuracy", acc, len(t.in.probes))
	if acc < accuracyLow || acc > accuracyHigh {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("ident_accuracy %.3f outside [%.2f, %.2f]", acc, accuracyLow, accuracyHigh))
	}
}

// watchGoroutines samples the goroutine count until the returned
// function is called, which reports the peak.
func watchGoroutines() (peak func() int) {
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		hi := runtime.NumGoroutine()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- hi
				return
			case <-tick.C:
				hi = max(hi, runtime.NumGoroutine())
			}
		}
	}()
	return func() int {
		close(stop)
		return <-done
	}
}
