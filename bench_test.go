package repro

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/devices"
	"repro/internal/editdist"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
	"repro/internal/ml"
	"repro/internal/packet"
	"repro/internal/vulndb"
)

// benchBank trains a 27-type bank once and caches it across benchmarks,
// together with held-out probe fingerprints.
type benchFixture struct {
	bank   *core.Bank
	probes []*fingerprint.Fingerprint
	traces []devices.Trace
}

var fixture *benchFixture

func getFixture(b *testing.B) *benchFixture {
	b.Helper()
	if fixture != nil {
		return fixture
	}
	env := devices.DefaultEnv()
	ds, err := devices.GenerateDataset(env, 1, 12)
	if err != nil {
		b.Fatal(err)
	}
	train := make(map[string][]*fingerprint.Fingerprint, len(ds))
	var probes []*fingerprint.Fingerprint
	var traces []devices.Trace
	for _, name := range devices.Names() {
		train[name] = ds[name][:11]
		probes = append(probes, ds[name][11])
		p, err := devices.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		traces = append(traces, p.Generate(env, 1, 11))
	}
	bank, err := core.Train(core.Config{Forest: ml.ForestConfig{Trees: 100}, Seed: 1}, train)
	if err != nil {
		b.Fatal(err)
	}
	fixture = &benchFixture{bank: bank, probes: probes, traces: traces}
	return fixture
}

// --- Fig. 5 / Table III: the identification protocol ------------------

// BenchmarkFig5Protocol runs one reduced cross-validation pass of the
// Fig. 5 experiment per iteration (the full paper protocol is
// regenerated by cmd/sentinel-eval).
func BenchmarkFig5Protocol(b *testing.B) {
	cfg := experiments.IdentConfig{Runs: 8, Folds: 4, Repeats: 1, Trees: 25, Seed: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunIdentification(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GlobalAccuracy(), "accuracy")
	}
}

// --- Table IV: per-step timing ----------------------------------------

// BenchmarkTable4Classification measures one Random Forest decision
// (row 1 of Table IV; the paper reports 0.014 ms).
func BenchmarkTable4Classification(b *testing.B) {
	fx := getFixture(b)
	probe := fx.probes[0].Fixed()
	forestShare := fx.bank.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Classify runs all 27 forests; the per-forest share is reported
		// as a metric below.
		fx.bank.Classify(probe)
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perOp/float64(forestShare), "ns/forest")
}

// BenchmarkTable4Discrimination measures one edit-distance computation
// between two fingerprints (row 2 of Table IV; paper: 23.36 ms on
// ~minute-long captures).
func BenchmarkTable4Discrimination(b *testing.B) {
	fx := getFixture(b)
	a := fx.probes[0].Vectors()
	c := fx.probes[1].Vectors()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		editdist.Normalized(a, c)
	}
}

// BenchmarkTable4DiscriminationLongF repeats the edit-distance
// measurement on paper-scale captures (F of ~300 packet columns, as one
// to two minutes of chatty setup traffic produces). At this length the
// O(|F|²) edit distance dominates classification by orders of magnitude,
// which is the Table IV relationship the paper reports (23.36 ms vs
// 0.014 ms).
func BenchmarkTable4DiscriminationLongF(b *testing.B) {
	fx := getFixture(b)
	long := func(seed int) []features.Vector {
		base := fx.probes[seed%len(fx.probes)].Vectors()
		out := make([]features.Vector, 0, 300)
		for len(out) < 300 {
			for _, v := range base {
				v[features.Size] += int32(len(out) % 7) // perturb sizes so columns differ
				out = append(out, v)
				if len(out) == 300 {
					break
				}
			}
		}
		return out
	}
	a, c := long(0), long(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		editdist.Normalized(a, c)
	}
}

// BenchmarkTable4Extraction measures fingerprint extraction from a
// captured packet sequence (row 3; paper: 0.85 ms).
func BenchmarkTable4Extraction(b *testing.B) {
	fx := getFixture(b)
	pkts := fx.traces[0].Packets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp := fingerprint.New(pkts)
		_ = fp.Fixed()
	}
}

// BenchmarkTable4Identification measures the full two-stage
// identification (bottom row; paper: 157.7 ms).
func BenchmarkTable4Identification(b *testing.B) {
	fx := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.bank.Identify(fx.probes[i%len(fx.probes)])
	}
}

// --- Table V / Table VI: enforcement latency ---------------------------

// BenchmarkTable5PingFiltering measures one 15-ping D1->D4 latency
// experiment with filtering enabled.
func BenchmarkTable5PingFiltering(b *testing.B) {
	benchPing(b, true)
}

// BenchmarkTable5PingNoFiltering is the no-filtering baseline.
func BenchmarkTable5PingNoFiltering(b *testing.B) {
	benchPing(b, false)
}

func benchPing(b *testing.B, filtering bool) {
	cfg := experiments.EnforceConfig{Iterations: 15, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var mean time.Duration
		if filtering {
			mean = res.Pairs[0].WithMean
		} else {
			mean = res.Pairs[0].NoMean
		}
		b.ReportMetric(float64(mean)/1e6, "rtt-ms")
	}
}

// --- Fig. 6a / 6b: load sweep ------------------------------------------

// BenchmarkFig6aLoad runs one 140-flow load point (latency + CPU) with
// filtering per iteration.
func BenchmarkFig6aLoad(b *testing.B) {
	cfg := experiments.EnforceConfig{Iterations: 10, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6ab(cfg, []int{140})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Filtering[0].CPUPct, "cpu-pct")
		b.ReportMetric(float64(res.Filtering[0].LatencyD1D2)/1e6, "rtt-ms")
	}
}

// --- Fig. 6c: rule-cache memory ----------------------------------------

// BenchmarkFig6cMemory measures building the enforcement state for 5000
// device rules (the Fig. 6c sweep point in the middle of the paper's
// range).
func BenchmarkFig6cMemory(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig6c([]int{5000})
		b.ReportMetric(res.Filtering[0].TotalMB, "MB")
	}
}

// --- Ablations (design choices called out in DESIGN.md) -----------------

func ablationConfig() experiments.IdentConfig {
	return experiments.IdentConfig{Runs: 6, Folds: 3, Repeats: 1, Trees: 20, Seed: 4}
}

// BenchmarkAblationFPrimeLength sweeps the F' truncation length
// (paper §IV-A: 12 packets "a good trade-off").
func BenchmarkAblationFPrimeLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationFPrimeLength(ablationConfig(), []int{4, 12, 20})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[1].GlobalAccuracy, "acc@12")
	}
}

// BenchmarkAblationEditDistanceOnly compares the two-stage pipeline with
// identification by edit distance alone (paper §IV-B: "far more time
// consuming").
func BenchmarkAblationEditDistanceOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationEditDistanceOnly(ablationConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].GlobalAccuracy, "acc-two-stage")
		b.ReportMetric(res.Points[1].GlobalAccuracy, "acc-edit-only")
	}
}

// BenchmarkAblationNegativeRatio sweeps the 10·n negative sampling rule
// (§VI-B).
func BenchmarkAblationNegativeRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationNegativeRatio(ablationConfig(), []int{1, 10})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[1].GlobalAccuracy, "acc@10n")
	}
}

// BenchmarkAblationForestSize sweeps the per-type forest size.
func BenchmarkAblationForestSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationForestSize(ablationConfig(), []int{10, 100})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[1].GlobalAccuracy, "acc@100")
	}
}

// --- Batch identification throughput ------------------------------------
//
// The concurrent engine's headline numbers: fingerprints/sec through
// Bank.IdentifyBatch versus the sequential Identify loop, swept over
// batch size and worker count. Sweep GOMAXPROCS with the standard -cpu
// flag (e.g. `go test -bench=Throughput -cpu=1,4,8`); workers=0 follows
// GOMAXPROCS.

// throughputProbes replicates the held-out probes to the given batch
// size (the Table-4-scale workload is 4 probes per enrolled type).
func throughputProbes(fx *benchFixture, batch int) []*fingerprint.Fingerprint {
	probes := make([]*fingerprint.Fingerprint, batch)
	for i := range probes {
		probes[i] = fx.probes[i%len(fx.probes)]
	}
	return probes
}

// BenchmarkThroughputSequential is the baseline: the one-at-a-time
// Identify loop over the Table-4-scale batch.
func BenchmarkThroughputSequential(b *testing.B) {
	fx := getFixture(b)
	probes := throughputProbes(fx, 4*len(fx.probes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range probes {
			fx.bank.Identify(f)
		}
	}
	b.ReportMetric(float64(len(probes)*b.N)/b.Elapsed().Seconds(), "fp/s")
}

// BenchmarkThroughputBatch sweeps the batch engine over batch sizes and
// worker counts.
func BenchmarkThroughputBatch(b *testing.B) {
	fx := getFixture(b)
	base := len(fx.probes) // 27
	for _, mult := range []int{1, 4, 16} {
		batch := base * mult
		for _, workers := range []int{1, 2, 4, 8, 0} {
			name := fmt.Sprintf("batch=%d/workers=%d", batch, workers)
			if workers == 0 {
				name = fmt.Sprintf("batch=%d/workers=GOMAXPROCS", batch)
			}
			b.Run(name, func(b *testing.B) {
				probes := throughputProbes(fx, batch)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fx.bank.IdentifyBatch(probes, workers)
				}
				b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "fp/s")
			})
		}
	}
}

// BenchmarkThroughputExperiment runs the packaged sweep once per
// iteration and reports the GOMAXPROCS-worker speedup it measured.
func BenchmarkThroughputExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunThroughput(experiments.ThroughputConfig{
			Runs: 8, Trees: 50, Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[len(res.Points)-1].Speedup, "speedup")
	}
}

// BenchmarkThroughputServiceWarmCache measures the cloud service's hot
// path for the fleet's repeat-setup pattern: Service.IdentifyBatch over
// a batch that is entirely resident in the verdict cache.
func BenchmarkThroughputServiceWarmCache(b *testing.B) {
	fx := getFixture(b)
	svc := iotssp.NewService(fx.bank, iotssp.ServiceConfig{DB: vulndb.Seeded()})
	batch := throughputProbes(fx, 4*len(fx.probes))
	macs := make([]string, len(batch))
	for i := range macs {
		macs[i] = fmt.Sprintf("02:be:00:00:%02x:%02x", i>>8, i&0xff)
	}
	svc.IdentifyBatch(macs, batch, 0) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.IdentifyBatch(macs, batch, 0)
	}
	b.ReportMetric(float64(len(batch)*b.N)/b.Elapsed().Seconds(), "fp/s")
	st := svc.CacheStats()
	b.ReportMetric(st.HitRate(), "hitrate")
}

// BenchmarkThroughputServiceColdCache is the same batch with the cache
// disabled: every fingerprint pays a full bank identification. The gap
// to the warm-cache bench is what verdict caching buys a fleet.
func BenchmarkThroughputServiceColdCache(b *testing.B) {
	fx := getFixture(b)
	svc := iotssp.NewService(fx.bank, iotssp.ServiceConfig{DB: vulndb.Seeded(), CacheSize: -1})
	batch := throughputProbes(fx, 4*len(fx.probes))
	macs := make([]string, len(batch))
	for i := range macs {
		macs[i] = fmt.Sprintf("02:be:00:00:%02x:%02x", i>>8, i&0xff)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.IdentifyBatch(macs, batch, 0)
	}
	b.ReportMetric(float64(len(batch)*b.N)/b.Elapsed().Seconds(), "fp/s")
}

// BenchmarkThroughputPackedCodec measures the compact wire codec round
// trip (marshal + unmarshal) that the pooled clients and the server pay
// per request.
func BenchmarkThroughputPackedCodec(b *testing.B) {
	fx := getFixture(b)
	fp := fx.probes[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := fingerprint.MarshalReportPacked("02:be:00:00:00:01", fp)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := fingerprint.UnmarshalReportStruct(r); err != nil {
			b.Fatal(err)
		}
	}
}

// shardedFixtures caches trained sharded banks per shard count.
var shardedFixtures = map[int]*core.ShardedBank{}

func getShardedBank(b *testing.B, shards int) *core.ShardedBank {
	b.Helper()
	if sb := shardedFixtures[shards]; sb != nil {
		return sb
	}
	env := devices.DefaultEnv()
	ds, err := devices.GenerateDataset(env, 1, 12)
	if err != nil {
		b.Fatal(err)
	}
	train := make(map[string][]*fingerprint.Fingerprint, len(ds))
	for _, name := range devices.Names() {
		train[name] = ds[name][:11]
	}
	sb, err := core.TrainSharded(core.Config{Forest: ml.ForestConfig{Trees: 100}, Seed: 1}, shards, train)
	if err != nil {
		b.Fatal(err)
	}
	shardedFixtures[shards] = sb
	return sb
}

// BenchmarkThroughputShardedBank sweeps the scatter/gather batch path
// over shard counts: each shard classifies the whole batch with its
// own forests concurrently, and stage-two discrimination tasks fan out
// per (fingerprint, shard).
func BenchmarkThroughputShardedBank(b *testing.B) {
	fx := getFixture(b)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sb := getShardedBank(b, shards)
			probes := throughputProbes(fx, 4*len(fx.probes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb.IdentifyBatch(probes, 0)
			}
			b.ReportMetric(float64(len(probes)*b.N)/b.Elapsed().Seconds(), "fp/s")
		})
	}
}

// BenchmarkThroughputFleetPool measures the health-aware fleet client
// end to end: consistent-hash routing over two live replicas of one
// shared warm-cache service, pipelined via concurrent callers.
func BenchmarkThroughputFleetPool(b *testing.B) {
	fx := getFixture(b)
	svc := iotssp.NewService(fx.bank, iotssp.ServiceConfig{DB: vulndb.Seeded()})
	fleet := iotssp.NewFleet([]*iotssp.Service{svc, svc}, iotssp.ServerConfig{})
	if err := fleet.Start(); err != nil {
		b.Fatal(err)
	}
	defer fleet.Close()
	pool := gateway.NewFleetPool(fleet.Addrs(), gateway.FleetPoolConfig{
		Pool: gateway.PoolConfig{Conns: 2, Seed: 1},
	})
	defer pool.Close()

	fp := fx.probes[0]
	if _, err := pool.Identify(context.Background(), "02:bf:00:00:00:01", fp); err != nil {
		b.Fatal(err) // warm the cache and the connections
	}
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			mac := fmt.Sprintf("02:bf:00:00:%02x:%02x", (n>>8)&0xff, n&0xff)
			if _, err := pool.Identify(context.Background(), mac, fp); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	if st := pool.Counters(); st.Failures > 0 {
		b.Fatalf("fleet pool failures during bench: %+v", st)
	}
}

// --- Operational micro-benchmarks ---------------------------------------

// enrollCorpus is the catalog corpus the training benchmarks share: 12
// runs of every Table-II type.
func enrollCorpus(b *testing.B) devices.Dataset {
	b.Helper()
	ds, err := devices.GenerateDataset(devices.DefaultEnv(), 2, 12)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkEnroll measures adding one new device-type to a 26-type bank
// (the incremental-learning property of §IV-B1). The bank is trained
// once; each iteration times one Enroll and removes the type again
// untimed.
func BenchmarkEnroll(b *testing.B) {
	ds := enrollCorpus(b)
	newType := ds["iKettle2"]
	train := make(map[string][]*fingerprint.Fingerprint, len(ds)-1)
	for name, prints := range ds {
		if name != "iKettle2" {
			train[name] = prints
		}
	}
	bank, err := core.Train(core.Config{Forest: ml.ForestConfig{Trees: 100}, Seed: 1}, train)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bank.Enroll("iKettle2", newType); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := bank.Remove("iKettle2"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkTrainBank measures training the whole 27-type, 100-tree bank
// in one batch, the start-up cost of a fresh IoT Security Service.
func BenchmarkTrainBank(b *testing.B) {
	ds := enrollCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(core.Config{Forest: ml.ForestConfig{Trees: 100}, Seed: 1}, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetGeneration measures producing the full 27×20 corpus.
func BenchmarkDatasetGeneration(b *testing.B) {
	env := devices.DefaultEnv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := devices.GenerateDataset(env, int64(i), 20); err != nil {
			b.Fatal(err)
		}
	}
}

// mixedBankFixture caches an assembled local/remote logical bank: two
// shards trained as one partition, shard 1 served behind a
// shard-serving IoTSSP replica and reached through a RemoteShard
// client.
type mixedBankFixture struct {
	mixed  *core.ShardedBank
	remote *iotssp.RemoteShard
}

var mixedFixture *mixedBankFixture

func getMixedBank(b *testing.B) *mixedBankFixture {
	b.Helper()
	if mixedFixture != nil {
		return mixedFixture
	}
	sb := getShardedBank(b, 2)
	replica := iotssp.NewShardReplica(sb.Shard(1).(*core.Bank), iotssp.ServerConfig{})
	if err := replica.Start(); err != nil {
		b.Fatal(err)
	}
	remote := iotssp.NewRemoteShard(replica.Addr(), iotssp.RemoteShardConfig{Seed: 1})
	mixed, err := core.NewShardedBankFrom(core.Config{Forest: ml.ForestConfig{Trees: 100}, Seed: 1},
		[]core.Shard{sb.Shard(0), remote})
	if err != nil {
		b.Fatal(err)
	}
	mixedFixture = &mixedBankFixture{mixed: mixed, remote: remote}
	return mixedFixture
}

// BenchmarkThroughputRemoteShard measures the distributed logical bank:
// scatter/gather IdentifyBatch where one of the two shards answers over
// the shard wire protocol (packed batches, pipelined connections). The
// gap to BenchmarkThroughputShardedBank/shards=2 is the wire tax on one
// machine; on real fleets the remote shard contributes its own cores.
func BenchmarkThroughputRemoteShard(b *testing.B) {
	fx := getFixture(b)
	mx := getMixedBank(b)
	probes := throughputProbes(fx, 4*len(fx.probes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mx.mixed.IdentifyBatch(probes, 0)
	}
	b.ReportMetric(float64(len(probes)*b.N)/b.Elapsed().Seconds(), "fp/s")
	if st := mx.remote.Counters(); st.Failures > 0 {
		b.Fatalf("remote shard failures during bench: %+v", st)
	}
}

// BenchmarkThroughputDistributedService measures the verdict service
// fronting the distributed bank with a warm cache: the common fleet
// case where the wire hop is fully amortized behind cache hits.
func BenchmarkThroughputDistributedService(b *testing.B) {
	fx := getFixture(b)
	mx := getMixedBank(b)
	svc := iotssp.NewService(mx.mixed, iotssp.ServiceConfig{DB: vulndb.Seeded()})
	batch := throughputProbes(fx, 4*len(fx.probes))
	macs := make([]string, len(batch))
	for i := range macs {
		macs[i] = fmt.Sprintf("02:bd:00:00:%02x:%02x", i>>8, i&0xff)
	}
	svc.IdentifyBatch(macs, batch, 0) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.IdentifyBatch(macs, batch, 0)
	}
	b.ReportMetric(float64(len(batch)*b.N)/b.Elapsed().Seconds(), "fp/s")
}

// --- Dataplane: capture-to-verdict hot path ------------------------------
//
// The per-packet cost floor of the ingestion pipeline. BenchmarkDecode
// and BenchmarkExtract guard the zero-allocation contract of the reusing
// decode + feature-extraction path (b.ReportAllocs must stay at 0
// allocs/op); BenchmarkDataplane is the end-to-end worker-per-core
// pipeline in packets/sec.

// benchFrames serializes the fixture's 27 device setup traces and merges
// them into one timestamp-ordered frame stream (distinct per-type MACs),
// cached across benchmarks.
var benchFrameCache []dataplane.Frame

func benchFrames(b *testing.B) []dataplane.Frame {
	b.Helper()
	if benchFrameCache != nil {
		return benchFrameCache
	}
	fx := getFixture(b)
	var frames []dataplane.Frame
	for _, tr := range fx.traces {
		for _, p := range tr.Packets {
			wire, err := p.Serialize()
			if err != nil {
				b.Fatal(err)
			}
			frames = append(frames, dataplane.Frame{TS: p.Timestamp, Data: wire})
		}
	}
	sort.SliceStable(frames, func(i, j int) bool { return frames[i].TS.Before(frames[j].TS) })
	benchFrameCache = frames
	return frames
}

// BenchmarkDecode measures streaming decode through one reused DecodeBuf
// over the mixed 27-device trace. The allocs/op column is the regression
// gate: it must be 0.
func BenchmarkDecode(b *testing.B) {
	frames := benchFrames(b)
	var dec packet.DecodeBuf
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			if _, err := dec.Decode(f.Data, f.TS); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(frames)*b.N)/b.Elapsed().Seconds(), "pkt/s")
}

// BenchmarkExtract measures decode + per-packet feature extraction — the
// full per-frame work of a dataplane worker. Allocs/op must stay 0.
func BenchmarkExtract(b *testing.B) {
	frames := benchFrames(b)
	var dec packet.DecodeBuf
	var ex features.Extractor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			p, err := dec.Decode(f.Data, f.TS)
			if err != nil {
				b.Fatal(err)
			}
			ex.Extract(p)
		}
	}
	b.ReportMetric(float64(len(frames)*b.N)/b.Elapsed().Seconds(), "pkt/s")
}

// BenchmarkDataplane runs the worker-per-core pipeline end to end
// (demux, decode, extract, setup-end detection, capture assembly) over
// the merged trace. Sweep worker counts with -cpu as usual; workers
// follow GOMAXPROCS.
func BenchmarkDataplane(b *testing.B) {
	frames := benchFrames(b)
	src := dataplane.NewFrameSource(frames)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		res, err := dataplane.Run(dataplane.Config{}, src)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Captures == 0 {
			b.Fatal("pipeline produced no captures")
		}
	}
	b.ReportMetric(float64(len(frames)*b.N)/b.Elapsed().Seconds(), "pkt/s")
}

// --- Compact forests: snapshots, quantization, wire cost -----------------

// BenchmarkQuantizedClassify measures stage-one classification through
// the exact flat layout versus the float32-quantized one, on a
// quantized bank rebuilt from the exact bank's snapshot (the trained
// trees are identical; only the serving layout differs). The agreement
// metric is the fraction of held-out probes whose candidate sets match
// the exact bank's.
func BenchmarkQuantizedClassify(b *testing.B) {
	fx := getFixture(b)
	snap, err := fx.bank.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	qbank, err := core.RestoreBank(core.Config{
		Forest: ml.ForestConfig{Trees: 100, Flat: ml.FlatConfig{Quantize: true}},
		Seed:   1,
	}, snap)
	if err != nil {
		b.Fatal(err)
	}
	agree := 0
	for _, fp := range fx.probes {
		a, c := fx.bank.Classify(fp.Fixed()), qbank.Classify(fp.Fixed())
		if fmt.Sprint(a) == fmt.Sprint(c) {
			agree++
		}
	}
	for _, tc := range []struct {
		name string
		bank *core.Bank
	}{
		{"exact", fx.bank},
		{"quantized", qbank},
	} {
		b.Run(tc.name, func(b *testing.B) {
			probe := fx.probes[0].Fixed()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.bank.Classify(probe)
			}
			b.ReportMetric(float64(agree)/float64(len(fx.probes)), "agreement")
		})
	}
}

// --- Fused multi-forest classification engine ----------------------------

// fusedBankCache caches per-type-count banks for the fused-engine grid
// (the 27-type point reuses the main fixture's bank).
var fusedBankCache = map[int]*core.Bank{}

func getFusedBank(b *testing.B, types int) *core.Bank {
	b.Helper()
	if bank := fusedBankCache[types]; bank != nil {
		return bank
	}
	env := devices.DefaultEnv()
	ds, err := devices.GenerateDataset(env, 1, 12)
	if err != nil {
		b.Fatal(err)
	}
	train := make(map[string][]*fingerprint.Fingerprint, types)
	for _, name := range devices.Names()[:types] {
		train[name] = ds[name][:11]
	}
	bank, err := core.Train(core.Config{Forest: ml.ForestConfig{Trees: 100}, Seed: 1}, train)
	if err != nil {
		b.Fatal(err)
	}
	fusedBankCache[types] = bank
	return bank
}

// BenchmarkFusedClassify measures stage one through the fused
// multi-forest index (one tiled pass, shared worker pool, reused
// votes/accepts buffers — the allocs/op column is the regression gate
// and must be 0) against the per-forest oracle (one PredictProbBatch
// fan-out per enrolled type, the pre-fusion engine), over an enrolled-
// types × batch-size grid. The fused/perforest ratio at a given grid
// point is the tentpole's speedup; it grows with the type count because
// the per-forest path pays one goroutine spawn + join barrier per
// forest while the fused pass pays one for the whole bank.
func BenchmarkFusedClassify(b *testing.B) {
	fx := getFixture(b)
	for _, types := range []int{8, 16, 27} {
		var bank *core.Bank
		if types == len(fx.probes) {
			bank = fx.bank
		} else {
			bank = getFusedBank(b, types)
		}
		for _, batch := range []int{64, 256} {
			fixed := make([][]float64, batch)
			for i := range fixed {
				fixed[i] = fx.probes[i%len(fx.probes)].Fixed()
			}
			var m ml.SampleMatrix
			m.Reset(batch, fingerprint.FixedLen)
			for i, x := range fixed {
				m.SetRow(i, x)
			}
			b.Run(fmt.Sprintf("types=%d/batch=%d/fused", types, batch), func(b *testing.B) {
				var votes []int32
				var accepts core.AcceptMask
				bank.ClassifyVotes(&m, &votes, &accepts, 0) // size buffers, warm the pool
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bank.ClassifyVotes(&m, &votes, &accepts, 0)
				}
				b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "fp/s")
			})
			b.Run(fmt.Sprintf("types=%d/batch=%d/perforest", types, batch), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bank.ClassifyBatchOracle(fixed, 0)
				}
				b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "fp/s")
			})
		}
	}
}

// BenchmarkBytesPerVerdict measures the shard-plane wire cost of a
// classify batch per verdict, straight off the lineconn byte counters:
// the stateless delta-packed encoding, and the per-connection
// dictionary wire (references for recurring fingerprints). The gap is the cross-request
// compression payoff the distributed/replicated experiments report as
// bytes/verdict in BENCH_ci.json.
func BenchmarkBytesPerVerdict(b *testing.B) {
	fx := getFixture(b)
	sb := getShardedBank(b, 2)
	for _, wire := range []iotssp.WireMode{iotssp.WireOff, iotssp.WireDict} {
		name := wire.String()
		if wire == iotssp.WireOff {
			name = "delta"
		}
		b.Run(name, func(b *testing.B) {
			replica := iotssp.NewShardReplica(sb.Shard(1).(*core.Bank), iotssp.ServerConfig{})
			if err := replica.Start(); err != nil {
				b.Fatal(err)
			}
			defer replica.Close()
			remote := iotssp.NewRemoteShard(replica.Addr(), iotssp.RemoteShardConfig{Seed: 1, Wire: wire})
			defer remote.Close()
			probes := throughputProbes(fx, 4*len(fx.probes))
			remote.ClassifyBatch(probes, 0) // warm the connection, negotiate, seed the dictionary
			st0 := remote.Counters()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				remote.ClassifyBatch(probes, 0)
			}
			b.StopTimer()
			st := remote.Counters()
			if st.Failures > st0.Failures {
				b.Fatalf("remote shard failures during bench: %+v", st)
			}
			bytes := (st.Transport.BytesWritten + st.Transport.BytesRead) -
				(st0.Transport.BytesWritten + st0.Transport.BytesRead)
			b.ReportMetric(float64(bytes)/float64(len(probes)*b.N), "bytes/verdict")
			if wire != iotssp.WireOff {
				hits := st.Transport.DictHits - st0.Transport.DictHits
				misses := st.Transport.DictMisses - st0.Transport.DictMisses
				if hits+misses > 0 {
					b.ReportMetric(float64(hits)/float64(hits+misses), "dict-hit-rate")
				}
			}
		})
	}
}

// BenchmarkDictClassify measures the dictionary codec itself — a
// client/server Dict pair packing and unpacking a recurring classify
// batch — against the delta codec re-packing every fingerprint in
// full. The per-entry byte sizes land next to the CPU cost: the
// dictionary trades a hash lookup for shipping ~12 bytes instead of a
// whole packed F matrix.
func BenchmarkDictClassify(b *testing.B) {
	fx := getFixture(b)
	probes := throughputProbes(fx, 4*len(fx.probes))
	b.Run("dict", func(b *testing.B) {
		cli, srv := fingerprint.NewDict(iotssp.DefaultDictSize), fingerprint.NewDict(iotssp.DefaultDictSize)
		var entryBytes int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctxn, stxn := cli.Begin(), srv.Begin()
			entryBytes = 0
			for _, fp := range probes {
				entry, err := ctxn.Pack(fp)
				if err != nil {
					b.Fatal(err)
				}
				entryBytes += len(entry)
				if _, err := stxn.Unpack(entry); err != nil {
					b.Fatal(err)
				}
			}
			ctxn.Commit()
			stxn.Commit()
		}
		b.ReportMetric(float64(entryBytes)/float64(len(probes)), "bytes/fp")
	})
	b.Run("delta", func(b *testing.B) {
		var entryBytes int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			entryBytes = 0
			for _, fp := range probes {
				entry, err := fingerprint.PackDelta(fp)
				if err != nil {
					b.Fatal(err)
				}
				entryBytes += len(entry)
				if _, err := fingerprint.UnpackDelta(entry); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(entryBytes)/float64(len(probes)), "bytes/fp")
	})
}
