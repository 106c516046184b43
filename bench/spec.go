package main

import "time"

// Load shape shared by every serving phase. The generator never opens
// more connections than the 2-core box has cores.
const (
	genPools    = 2  // gateway.Pool clients, one connection each
	genInFlight = 64 // pipelined requests per pool in the closed phase
	sloMs       = 20 // latency limit behind loadgen.slo_miss_share
	trainRuns   = 8  // training fingerprints per type
	probeRuns   = 2  // held-out probes per type (27 x 2 = 54)
	forestTrees = 100
	missPool    = 8192 // distinct jittered fingerprints, twice the 4096-entry cache
	churnType   = "bench-synthetic"

	standbyBeats  = 8
	journeyRounds = 5   // every timed stage runs as this many interleaved slices
	p99Window     = 400 // open-loop requests per window; verdict_p99_ms is the first quartile of the windows' p99s
	accuracyLow   = 0.65
	accuracyHigh  = 0.97
	warmFor       = 250 * time.Millisecond // untimed closed-loop warm-up per set-up
)

// spec is one workload: a condition applied to the same device journey
// (serve closed, serve open, serve under enrolment churn, onboard,
// forward, ingest). Every workload runs every stage because the driver
// wants every end-to-end metric from every workload; the shares say
// where a workload spends its measured seconds, and the stages it is
// named for get most of them.
type spec struct {
	name string
	why  string

	remote   bool // two-partition control-plane bank with one remote shard
	miss     bool // every request a distinct fingerprint (cache bypassed)
	openRate int  // arrivals per second in the open and churn phases

	// Shares of -seconds. The remainder is slack for the count-based
	// onboard stage, which joins every device once per round.
	closed, open, churn, forward, ingest float64
	churnEvery                           time.Duration // writer period
	latencyUnderChurn                    bool          // verdict_p50/p99 from the churn phase

	devices     int // device instances onboarded through the gateway
	pcapPerType int // device instances per type in the ingest capture
}

// The fixed open-loop rates are about a sixth of the closed-loop capacity
// measured while sizing the benchmark on two cores (warm 36-50 k/s, miss
// 12-15 k/s, remote 6.5-9 k/s at 16 in flight per pool). At a third of
// capacity a 50 ms host stall queued more replies on a connection than
// the server's 256-deep write queue holds; the server then drops the
// connection as a slow consumer and the reconnects and retries that
// follow are a backlog of the generator's making.
var specs = []spec{
	{
		name: "fleet_warm", why: "54 repeated catalog fingerprints: ~100% verdict-cache hits, so codec, lineconn, dispatcher and cache probe do the work",
		openRate: 6000, closed: .20, open: .28, churn: .18, forward: .10, ingest: .16,
		churnEvery: 40 * time.Millisecond, devices: 54, pcapPerType: 2,
	},
	{
		name: "fleet_miss", why: "8192 distinct jittered fingerprints sent in cyclic order: 0% cache hits, so stage one and stage two dominate and the cache only inserts and evicts",
		miss: true, openRate: 3000, closed: .20, open: .28, churn: .18, forward: .10, ingest: .16,
		churnEvery: 40 * time.Millisecond, devices: 54, pcapPerType: 2,
	},
	{
		name: "remote_shards", why: "the miss stream against a control-plane bank with one remote WireDict shard: RemoteShard, shard server, dictionary and name interning on the blocking path",
		remote: true, miss: true, openRate: 2000, closed: .20, open: .30, churn: .16, forward: .10, ingest: .16,
		churnEvery: 40 * time.Millisecond, devices: 54, pcapPerType: 2,
	},
	{
		name: "enroll_churn", why: "the warm stream while a writer alternates Bank.Enroll and Bank.Remove every 100 ms: write-lock hold, ForestSet rebuild, whole-cache invalidation beside reads",
		openRate: 4000, closed: .14, open: .08, churn: .46, forward: .10, ingest: .14,
		churnEvery: 100 * time.Millisecond, latencyUnderChurn: true, devices: 54, pcapPerType: 2,
	},
	{
		name: "onboard", why: "the edge path: 100 devices join one filtering gateway, standby traffic is forwarded past ~10 000 flow rules, and a 27 x 8 capture file is replayed through dataplane.RunIdentify",
		openRate: 6000, closed: .12, open: .12, churn: .10, forward: .20, ingest: .18,
		churnEvery: 40 * time.Millisecond, devices: 100, pcapPerType: 8,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// metricDef is one catalogue entry; BENCHMARK.json repeats the
// catalogue and a unit test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"verdicts_per_s", "1/s", "higher", 0.25},
	{"verdict_p50_ms", "ms", "lower", 0.20},
	{"verdict_p99_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_verdict", "B", "lower", 0.05},
	{"enroll_p50_ms", "ms", "lower", 0.25},
	{"onboard_p50_ms", "ms", "lower", 0.25},
	{"onboard_p90_ms", "ms", "lower", 0.25},
	{"forward_pkts_per_s", "1/s", "higher", 0.25},
	{"ingest_pkts_per_s", "1/s", "higher", 0.25},
	{"ident_accuracy", "share", "higher", 0.20},
}

var perLayer = []metricDef{
	{name: "packet.decode_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "packet.decode_allocs_per_pkt", unit: "count", better: "lower"},
	{name: "pcap.next_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "features.extract_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "features.extract_ns_per_fp", unit: "ns", better: "lower"},
	{name: "dataplane.run_pkts_per_s", unit: "1/s", better: "higher"},
	{name: "dataplane.allocs_per_pkt", unit: "count", better: "lower"},
	{name: "dataplane.captures", unit: "count", better: "higher"},
	{name: "sniff.observe_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "fingerprint.new_ns_per_fp", unit: "ns", better: "lower"},
	{name: "fingerprint.fixed_ns_per_fp", unit: "ns", better: "lower"},
	{name: "fingerprint.encode_ns_per_fp", unit: "ns", better: "lower"},
	{name: "fingerprint.decode_ns_per_fp", unit: "ns", better: "lower"},
	{name: "fingerprint.report_bytes_per_fp", unit: "B", better: "lower"},
	{name: "fingerprint.hash_ns_per_fp", unit: "ns", better: "lower"},
	{name: "fingerprint.dict_hit_rate", unit: "share", better: "higher"},
	{name: "gateway.feed_ms_per_device", unit: "ms", better: "lower"},
	{name: "gateway.identify_ms_per_device", unit: "ms", better: "lower"},
	{name: "gateway.apply_ms_per_device", unit: "ms", better: "lower"},
	{name: "gateway.bridge_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "gateway.pool_rtt_p50_ms", unit: "ms", better: "lower"},
	{name: "gateway.pool_retries", unit: "count", better: "lower"},
	{name: "gateway.pool_failures", unit: "count", better: "lower"},
	{name: "enforce.compile_ns_per_rule", unit: "ns", better: "lower"},
	{name: "enforce.decide_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "flowtable.rules", unit: "count", better: "lower"},
	{name: "flowtable.add_ns_per_rule", unit: "ns", better: "lower"},
	{name: "flowtable.lookup_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "flowtable.cache_hit_rate", unit: "share", better: "higher"},
	{name: "lineconn.bytes_written_per_req", unit: "B", better: "lower"},
	{name: "lineconn.bytes_read_per_req", unit: "B", better: "lower"},
	{name: "lineconn.dials", unit: "count", better: "lower"},
	{name: "lineconn.reconnects", unit: "count", better: "lower"},
	{name: "lineconn.dropped_correlations", unit: "count", better: "lower"},
	{name: "iotssp.server_mean_batch", unit: "count", better: "higher"},
	{name: "iotssp.server_max_batch", unit: "count", better: "higher"},
	{name: "iotssp.server_overloaded", unit: "count", better: "lower"},
	{name: "iotssp.cache_hit_rate", unit: "share", better: "higher"},
	{name: "iotssp.cache_shared", unit: "count", better: "higher"},
	{name: "iotssp.cache_evictions", unit: "count", better: "lower"},
	{name: "iotssp.cache_invalidations", unit: "count", better: "lower"},
	{name: "iotssp.service_warm_ns_per_fp", unit: "ns", better: "lower"},
	{name: "iotssp.service_miss_ns_per_fp", unit: "ns", better: "lower"},
	{name: "iotssp.service_allocs_per_fp", unit: "count", better: "lower"},
	{name: "iotssp.bank_busy_share", unit: "share", better: "lower"},
	{name: "iotssp.remoteshard_classify_ms_per_batch", unit: "ms", better: "lower"},
	{name: "iotssp.remoteshard_discriminate_ms_per_call", unit: "ms", better: "lower"},
	{name: "iotssp.remoteshard_retries", unit: "count", better: "lower"},
	{name: "iotssp.remoteshard_failures", unit: "count", better: "lower"},
	{name: "iotssp.remoteshard_allocs_per_fp", unit: "count", better: "lower"},
	{name: "core.stage1_ns_per_fp", unit: "ns", better: "lower"},
	{name: "core.stage1_allocs_per_fp", unit: "count", better: "lower"},
	{name: "core.stage2_ns_per_call", unit: "ns", better: "lower"},
	{name: "core.stage2_share", unit: "share", better: "lower"},
	{name: "core.identify_batch_ns_per_fp", unit: "ns", better: "lower"},
	{name: "core.identify_single_ns", unit: "ns", better: "lower"},
	{name: "core.sharded_identify_ns_per_fp", unit: "ns", better: "lower"},
	{name: "core.enroll_idle_ms", unit: "ms", better: "lower"},
	{name: "core.remove_ms", unit: "ms", better: "lower"},
	{name: "core.snapshot_bytes", unit: "B", better: "lower"},
	{name: "ml.train_ms_per_forest", unit: "ms", better: "lower"},
	{name: "editdist.distance_ns", unit: "ns", better: "lower"},
	{name: "editdist.calls_per_verdict", unit: "count", better: "lower"},
	{name: "controlplane.assemble_ms", unit: "ms", better: "lower"},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower"},
	{name: "runtime.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.cpu_s_per_kop", unit: "s", better: "lower"},
	{name: "runtime.heap_inuse_mb", unit: "MB", better: "lower"},
	{name: "runtime.goroutines_peak", unit: "count", better: "lower"},
	{name: "runtime.gomaxprocs", unit: "count", better: "higher"},
	{name: "loadgen.sent", unit: "count", better: "higher"},
	{name: "loadgen.lag_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.inflight_at_end", unit: "count", better: "lower"},
	{name: "loadgen.slo_miss_share", unit: "share", better: "lower"},
	{name: "loadgen.p999_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
}
