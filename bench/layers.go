package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/editdist"
	"repro/internal/enforce"
	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/flowtable"
	"repro/internal/iotssp"
	"repro/internal/ml"
	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/sniff"
	"repro/internal/vulndb"
)

const (
	microDur   = 60 * time.Millisecond // shortest timing loop per leaf
	microBatch = 256                   // fingerprints per batched leaf call
	microUniq  = 2048                  // distinct fingerprints for the miss paths (< the cache)
	microRules = 2000                  // flow rules added to a fresh table
)

// perUnit calls f, which processes units items per call, until microDur
// has passed and returns nanoseconds per item and the items timed.
func perUnit(units int, f func()) (float64, int) {
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < microDur {
		f()
		calls++
	}
	return float64(time.Since(start)) / float64(calls*units), calls * units
}

// allocsPerUnit is the steady-state heap allocations per item of f: one
// unmeasured call sizes the reusable buffers first.
func allocsPerUnit(units int, f func()) float64 {
	const rounds = 5
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(rounds*units)
}

// measureLayers replays the workload's own inputs through each leaf
// function in isolation, after the journey, on the journey's bank,
// gateway and service. It fills every per-layer metric that is a timing
// or allocation count of one public function.
func measureLayers(t *topology, r *results) error {
	in := t.in
	bank := t.writer
	uniq := jitteredStream(in.probes, microUniq, rand.New(rand.NewSource(in.seed+7)))
	batch := uniq[:microBatch]

	// Capture file, decode, extraction, dataplane.
	readAll := func() error {
		rd, err := pcap.NewReader(bytes.NewReader(in.pcap))
		if err != nil {
			return err
		}
		var buf []byte
		for {
			rec, err := rd.NextBuf(buf)
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			buf = rec.Data
		}
	}
	if err := readAll(); err != nil {
		return fmt.Errorf("reading the capture file: %w", err)
	}
	v, n := perUnit(in.pcapPackets, func() { readAll() }) // checked just above
	r.set("pcap.next_ns_per_pkt", v, n)
	frames, err := pcap.ReadAll(bytes.NewReader(in.pcap))
	if err != nil {
		return err
	}
	var dec packet.DecodeBuf
	decode := func() {
		for _, f := range frames {
			dec.Decode(f.Data, f.Timestamp) // generated frames always decode
		}
	}
	v, n = perUnit(len(frames), decode)
	r.set("packet.decode_ns_per_pkt", v, n)
	r.set("packet.decode_allocs_per_pkt", allocsPerUnit(len(frames), decode), 5*len(frames))

	setupPkts := 0
	for i := range in.devices {
		setupPkts += len(in.devices[i].setup)
	}
	var ex features.Extractor
	extract := func() {
		for i := range in.devices {
			ex.Reset()
			for _, p := range in.devices[i].setup {
				ex.Extract(p)
			}
		}
	}
	v, n = perUnit(setupPkts, extract)
	r.set("features.extract_ns_per_pkt", v, n)
	r.set("features.extract_ns_per_fp", v*float64(setupPkts)/float64(len(in.devices)), n)

	var captures int
	pipeline := func() {
		src, err := dataplane.NewPcapSource(bytes.NewReader(in.pcap))
		if err != nil {
			return
		}
		if res, err := dataplane.Run(dataplane.PipelineConfig{}, src); err == nil {
			captures = len(res.Captures)
		}
	}
	v, n = perUnit(in.pcapPackets, pipeline)
	if captures != in.pcapDevices {
		return fmt.Errorf("dataplane.Run produced %d captures, want %d", captures, in.pcapDevices)
	}
	r.set("dataplane.run_pkts_per_s", 1e9/v, n)
	r.set("dataplane.allocs_per_pkt", allocsPerUnit(in.pcapPackets, pipeline), 5*in.pcapPackets)

	// Gateway side: monitor, fingerprint assembly, enforcement, flow table.
	v, n = perUnit(setupPkts, func() {
		m := sniff.NewMonitor(sniff.GatewayConfig())
		for i := range in.devices {
			for _, p := range in.devices[i].setup {
				m.Observe(p)
			}
		}
	})
	r.set("sniff.observe_ns_per_pkt", v, n)
	v, n = perUnit(len(in.devices), func() {
		for i := range in.devices {
			fingerprint.New(in.devices[i].setup)
		}
	})
	r.set("fingerprint.new_ns_per_fp", v, n)

	engine := t.gw.Engine()
	rules := engine.Rules()
	var flowRules []flowtable.Rule
	v, n = perUnit(len(rules), func() {
		flowRules = flowRules[:0]
		for _, rule := range rules {
			peers := engine.OverlayPeers(rule.Level, rule.DeviceMAC)
			flowRules = append(flowRules, enforce.CompileFlowRules(rule, peers, in.env.GatewayMAC, in.env.GatewayIP)...)
		}
	})
	r.set("enforce.compile_ns_per_rule", v, n)
	v, n = perUnit(len(in.standby), func() {
		for _, p := range in.standby {
			engine.DecidePacket(p)
		}
	})
	r.set("enforce.decide_ns_per_pkt", v, n)
	add := flowRules[:min(len(flowRules), microRules)]
	v, n = perUnit(len(add), func() {
		table := flowtable.New()
		for _, fr := range add {
			table.Add(fr)
		}
	})
	r.set("flowtable.add_ns_per_rule", v, n)
	table := t.gw.Table()
	v, n = perUnit(len(in.standby), func() {
		for _, p := range in.standby {
			table.Lookup(flowtable.KeyOf(p))
		}
	})
	r.set("flowtable.lookup_ns_per_pkt", v, n)

	// Fingerprint codecs.
	row := make([]float64, fingerprint.FixedLen)
	v, n = perUnit(len(batch), func() {
		for _, fp := range batch {
			fp.FixedNInto(row, fingerprint.FixedPackets)
		}
	})
	r.set("fingerprint.fixed_ns_per_fp", v, n)
	reports := make([]fingerprint.Report, len(batch))
	wireBytes := 0
	v, n = perUnit(len(batch), func() {
		for i, fp := range batch {
			reports[i], _ = fingerprint.MarshalReportPacked("02:00:00:00:00:01", fp) // nil only for a nil fingerprint
		}
	})
	r.set("fingerprint.encode_ns_per_fp", v, n)
	for _, rep := range reports {
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		wireBytes += len(line)
	}
	r.set("fingerprint.report_bytes_per_fp", float64(wireBytes)/float64(len(reports)), len(reports))
	var decodeErr error
	v, n = perUnit(len(reports), func() {
		for _, rep := range reports {
			if _, _, err := fingerprint.UnmarshalReportStruct(rep); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("decoding a packed report: %w", decodeErr)
	}
	r.set("fingerprint.decode_ns_per_fp", v, n)
	v, n = perUnit(len(batch), func() {
		for _, fp := range batch {
			fp.Hash()
		}
	})
	r.set("fingerprint.hash_ns_per_fp", v, n)

	// Service: the miss path on fresh caches, then the same set warm.
	macs := make([]string, microBatch)
	for i := range macs {
		macs[i] = requestMAC(in.seed, uint64(0xfc000000+i))
	}
	served := t.svc.Bank()
	svcCfg := iotssp.ServiceConfig{DB: vulndb.Seeded()}
	sweep := func(svc *iotssp.Service) {
		for off := 0; off < len(uniq); off += microBatch {
			svc.IdentifyBatch(macs, uniq[off:off+microBatch], 0)
		}
	}
	v, n = perUnit(len(uniq), func() { sweep(iotssp.NewService(served, svcCfg)) })
	r.set("iotssp.service_miss_ns_per_fp", v, n)
	var before, after runtime.MemStats
	cold := iotssp.NewService(served, svcCfg)
	runtime.ReadMemStats(&before)
	sweep(cold)
	runtime.ReadMemStats(&after)
	r.set("iotssp.service_allocs_per_fp", float64(after.Mallocs-before.Mallocs)/float64(len(uniq)), len(uniq))
	v, n = perUnit(len(uniq), func() { sweep(cold) })
	r.set("iotssp.service_warm_ns_per_fp", v, n)
	if st := cold.CacheStats(); st.Misses != uint64(len(uniq)) {
		return fmt.Errorf("warm service sweep recomputed verdicts: %d misses for %d distinct fingerprints", st.Misses, len(uniq))
	}

	// Bank: stage one, stage two, whole identification.
	var m ml.SampleMatrix
	m.Reset(len(batch), fingerprint.FixedLen)
	for i, fp := range batch {
		fp.FixedNInto(m.Row(i), fingerprint.FixedPackets)
	}
	var votes []int32
	var accepts core.AcceptMask
	stage1 := func() { bank.ClassifyVotes(&m, &votes, &accepts, 0) }
	v, n = perUnit(len(batch), stage1)
	r.set("core.stage1_ns_per_fp", v, n)
	r.set("core.stage1_allocs_per_fp", allocsPerUnit(len(batch), stage1), 5*len(batch))

	accepted := bank.ClassifyBatch(uniq, 0)
	var contested []int
	distances := 0
	for i, acc := range accepted {
		if len(acc) > 1 {
			contested = append(contested, i)
			distances += bank.DistanceComputations(acc)
		}
	}
	r.set("core.stage2_share", float64(len(contested))/float64(len(uniq)), len(uniq))
	r.set("editdist.calls_per_verdict", float64(distances)/float64(len(uniq)), len(uniq))
	if len(contested) > 0 {
		v, n = perUnit(len(contested), func() {
			for _, i := range contested {
				bank.Discriminate(uniq[i], accepted[i])
			}
		})
		r.set("core.stage2_ns_per_call", v, n)
	}
	v, n = perUnit(len(batch), func() { bank.IdentifyBatch(batch, 0) })
	r.set("core.identify_batch_ns_per_fp", v, n)
	v, n = perUnit(len(in.probes), func() {
		for _, fp := range in.probes {
			bank.Identify(fp)
		}
	})
	r.set("core.identify_single_ns", v, n)
	twin, err := core.TrainSharded(coreConfig(in.seed), 2, in.train)
	if err != nil {
		return fmt.Errorf("training the sharded twin: %w", err)
	}
	v, n = perUnit(len(batch), func() { twin.IdentifyBatch(batch, 0) })
	r.set("core.sharded_identify_ns_per_fp", v, n)

	var rows editdist.Rows
	v, n = perUnit(len(in.probes), func() {
		for i, fp := range in.probes {
			editdist.DistanceBuf(fp.View(), in.probes[(i+1)%len(in.probes)].View(), &rows)
		}
	})
	r.set("editdist.distance_ns", v, n)

	var enrollMs, removeMs []float64
	for k := 0; k < 5; k++ {
		start := time.Now()
		if err := bank.Enroll(churnType, in.synthetic); err != nil {
			return err
		}
		enrollMs = append(enrollMs, ms(time.Since(start)))
		start = time.Now()
		if err := bank.Remove(churnType); err != nil {
			return err
		}
		removeMs = append(removeMs, ms(time.Since(start)))
	}
	r.set("core.enroll_idle_ms", quantile(enrollMs, 0.5), len(enrollMs))
	r.set("core.remove_ms", quantile(removeMs, 0.5), len(removeMs))
	snap, err := bank.Snapshot()
	if err != nil {
		return err
	}
	r.set("core.snapshot_bytes", float64(len(snap)), 1)

	if t.remote != nil {
		classify := func() { t.remote.ClassifyBatch(batch, 0) }
		r.set("iotssp.remoteshard_allocs_per_fp", allocsPerUnit(len(batch), classify), 5*len(batch))
	}

	fmt.Printf("# paper Table IV anchor (%s): extraction %.0f ns/fp, classification %.0f ns x %d types = %.0f ns, discrimination %.0f ns/call, whole identification %.0f ns\n",
		t.sp.name, r.v["features.extract_ns_per_fp"], r.v["core.stage1_ns_per_fp"]/float64(bank.Len()), bank.Len(),
		r.v["core.stage1_ns_per_fp"], r.v["core.stage2_ns_per_call"], r.v["core.identify_single_ns"])
	return nil
}
