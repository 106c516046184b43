// Package repro is a from-scratch Go reproduction of "IoT SENTINEL:
// Automated Device-Type Identification for Security Enforcement in IoT"
// (Miettinen, Marchal, Hafeez, Asokan, Sadeghi, Tarkoma — ICDCS 2017).
//
// The library lives under internal/: the packet codecs, pcap I/O, the 23
// Table-I features, fingerprints F and F′, a from-scratch Random Forest,
// Damerau-Levenshtein discrimination, the two-stage identification
// pipeline (internal/core), the 27 Table-II device-behaviour profiles, a
// discrete-event network simulator, an OVS-style flow table, the
// enforcement layer, a CVE-style vulnerability repository, the IoT
// Security Service and the Security Gateway. The experiments package
// regenerates every table and figure of the paper's evaluation; the
// benchmarks in bench_test.go expose each of them to `go test -bench`.
//
// Training is the write the service performs when a device-type
// appears: ml.NewForest ranks every feature column once, grows each CART
// tree by counting rows per rank rather than sorting at each node, and
// trains the trees concurrently, bit-identical to the serial sort-based
// inducer kept in its tests as the oracle.
//
// Identification is a concurrent, batched engine. core.Bank is safe
// for concurrent use (Enroll may race Identify) and
// core.Bank.IdentifyBatch pipelines a whole fingerprint batch through
// the bank — one fused ml.ForestSet pass answering every enrolled
// forest × every sample (described below), then a worker pool for
// edit-distance discrimination with reused scratch buffers — returning
// results bit-identical to the sequential path. Stage two scores
// interned symbol strings: every reference print is interned at
// enrolment and restore, the probe compiles once per verdict into an
// editdist.Pattern scored with Hyyrö's bit-parallel OSA (the dynamic
// program remains for probes over 64 vectors), and the reference draws
// come from a lazy replay of rand.NewSource that computes only the
// state words its draws read; TestIdentifyGolden pins every verdict. The throughput experiment
// (experiments.RunThroughput) and the Throughput* benchmarks measure
// fingerprints/sec across batch sizes and worker counts.
//
// The Security Gateway never blocks its packet path on identification:
// completed setup captures enter a bounded queue drained by identifier
// workers under a context deadline, devices wait in strict quarantine
// until the asynchronous verdict is applied (Gateway.Tick/Drain), and
// failures, timeouts and queue overflows surface as user Notifications.
// Enforcement is the engine's rule cache (enforce.Engine, the authority
// on every decision) compiled into the OVS-style flow table in front of
// it: per device the control-traffic exemptions, one pair entry per
// direction for each peer in its overlay (enforce.PairRules is the one
// definition of a pair entry), its permitted cloud endpoints, and a
// final drop — or, for a Trusted device, a forward scoped to the
// gateway MAC, so WAN-bound traffic is forwarded and any other frame
// that matches nothing falls to the table default and is punted to the
// engine. A quarantine or a verdict is installed incrementally
// (Gateway.installRule): only the entries that name the device change —
// the ones compiled for the rule it replaces and the pair entries its
// overlay peers hold for it — so the device is compiled once against
// its current peers, each of those peers gains its pair for it, and
// flowtable.Table.Update takes the lot as one batch (one lock, one
// compaction, one priority-ordered merge behind the installed rules,
// one microflow-cache invalidation), O(devices) entries per install.
// The invariant is that after every install the table holds exactly the
// entries a whole-table recompile of every rule against its overlay
// peers would; that recompile lives in internal/gateway's tests as the
// oracle, next to a property test that the table never forwards what
// the engine denies.
//
// The IoT Security Service itself is built for multi-gateway load. The
// iotssp.Server runs a bounded accept loop with a read and a write pump
// per connection; a micro-batching dispatcher aggregates requests
// across every connection and flushes whatever is queued into the
// bank's IdentifyBatch as soon as the previous flush returns (no
// timer: batches grow with load, a lone request leaves at once),
// answering overload with retryable backpressure responses instead of
// unbounded queues. Identification results are cached in an LRU keyed
// by a per-service seeded maphash of the fingerprint's canonical bytes
// (fingerprint.AppendBinary), probed on the raw frame bytes before any
// decode, with singleflight collapsing of duplicate in-flight
// fingerprints — the
// fleet's repeat device models cost a cache probe instead of a forest
// pass — while the isolation level is assessed against the
// vulnerability repository on every request, so a new advisory
// re-levels the next verdict. On the client side,
// gateway.Pool multiplexes pipelined requests over N persistent
// connections (correlated by line, reconnecting with jittered backoff
// from a per-pool seeded source), and binary identify and verdict
// frames — no JSON, no base64 — keep protocol CPU out of the hot path.
// The load experiment (experiments.RunService) replays a multi-gateway
// fleet workload over TCP and reports throughput against the
// per-request baseline, cache hit rate, latency percentiles and a
// single JSON metrics snapshot. It and the two serving drills below
// (fleet, distributed) share one replay harness:
// one workload builder, one closed-loop phase runner over gateway
// pools that records verdicts in request order, counts lost requests
// and fires each drill from the request that crosses its threshold,
// and one experiments.Load shape embedded in every config.
//
// The identification path scales horizontally. core.ShardedBank
// partitions the per-type classifiers across N independent shards —
// each with its own lock, forests and reference store — so one flush
// scatters across shards concurrently and Enroll write-locks only the
// shard a new type routes to (least-loaded routing). Cache entries are
// tagged with the shard versions they depend on, so an enrolment
// invalidates exactly the dependent verdicts instead of the whole
// cache. On the serving side, iotssp.Replica and iotssp.Fleet run
// several servers over one shared (or several disjoint) services, each
// replica restartable in place on its own address; gateway.FleetPool
// consistent-hashes device MACs across the replicas, ejects a backend
// after consecutive failures, probes it back in with jittered
// exponential backoff, and transparently fails requests over to
// healthy replicas — a mid-run backend kill loses no verdicts. The
// fleet experiment (experiments.RunFleet, sentinel-eval -experiment
// fleet) drills exactly that: baseline versus replicated throughput, a
// mid-run kill with zero lost verdicts, and cache-counter-verified
// shard-scoped invalidation.
//
// Every wire client rides one transport. internal/lineconn owns the
// pipelined line-correlated connection that gateway.Pool (and so
// FleetPool) and iotssp.RemoteShard each used to hand-roll: request
// lines are counted per connection, responses correlate to waiters by
// the server's line echo, a generation guard keeps responses buffered
// from a severed connection from resolving waiters on its replacement,
// and any transport failure fails every pending waiter fast and redials
// lazily. Protocols with an opening negotiation (the shard hello) plug
// in through a handshake hook that owns line 1 of every fresh
// connection. Concurrent round-trips group-commit: each queues its
// line, and one of them ships everything queued in a single socket
// write. The transport exposes one canonical counter block — dials,
// reconnects, writes, bursts, dropped correlations — surfaced verbatim
// through PoolStats and RemoteShardStats into the experiments' metrics
// snapshot, and one Retry policy drives every client's jittered
// exponential backoff from the shared internal/backoff source.
//
// The bank's shards themselves cross process boundaries. core.Shard
// abstracts one partition of the logical bank
// (ClassifyBatch/Discriminate/Enroll/Version/Types); the in-process
// core.Bank satisfies it directly, and iotssp.RemoteShard satisfies it
// over the IoTSSP wire protocol's shard verbs (a strict hello, then
// classify/discriminate/enroll/meta carrying compactly coded F
// matrices) against a shard-serving iotssp.Server — so one logical
// core.ShardedBank spans machines while scatter/gather, least-loaded
// enroll routing and per-shard cache versioning work unchanged. Remote
// version bumps ride every shard response into the client's cached
// version vector, driving the same shard-scoped cache invalidation as
// a local enrolment; reconnect/retry with jittered backoff carries
// requests across a shard-server restart. Gateways stream too:
// gateway.Pool.IdentifyBatch sends queued captures as one pipelined
// burst per connection, and the gateway's identifier workers drain
// their queue into such bursts. The distributed experiment
// (experiments.RunDistributed, sentinel-eval -experiment distributed)
// asserts the mixed local/remote bank is bit-equal to the all-local
// baseline, survives a mid-run remote-shard restart with zero lost
// verdicts, and invalidates exactly the dependent cache entries on a
// remote enrolment.
//
// The serving topology is fixed when a control plane assembles it. A
// controlplane.Topology is a declarative spec — partitions of the
// device-type universe, each local or served by one shard server — and
// controlplane.Assemble turns it plus a training set into a running
// Cluster: trained partition banks, a shard replica and RemoteShard
// client per remote partition, one logical ShardedBank, and the
// verdict frontends. New device-types enrol through the logical bank
// (Cluster.Bank().Enroll) while verdicts keep flowing; no partition is
// replicated and no type moves between partitions, as in the paper's
// single IoT Security Service. Whole-bank availability comes from
// replicating the verdict service (iotssp.Fleet behind
// gateway.FleetPool). Every managed piece satisfies the same Component
// contract (Stats() json.RawMessage, Healthy() bool, Close() error),
// so cluster health is a conjunction and metrics snapshots are a
// uniform []stats.Snapshot of tagged counter blocks rather than
// per-kind struct fields. Constructors across the stack are uniform —
// iotssp.NewServer(svc, ServerConfig) and iotssp.NewService(bank,
// ServiceConfig) subsume the former config-less/cache variants — and
// the layer configs carry intention-revealing aliases
// (core.BankConfig, gateway.GatewayConfig, dataplane.PipelineConfig)
// so call sites composing several layers stay readable.
//
// Trained forests are compact, serializable state. The flattened
// serving layout optionally quantizes (ml.FlatConfig: float32
// thresholds and leaf probabilities, bottom-up leaf-count pruning) —
// off by default and bit-identical to the trained trees, with the
// accuracy drift measured when on — and every trained bank serializes
// to one canonical versioned blob (core.Bank.Snapshot/Restore,
// core.RestoreBank) whose byte equality is bank bit-identity
// (core.SnapshotsEqual): restore rejects config mismatches and
// truncation, never disturbs state on error, and restored banks enroll
// future types bit-identically to the original (per-enrolment derived
// training seeds). The shard wire carries delta-packed classify batches
// and OpDelta version bumps that shard servers push to every connection
// that said hello — version caches and shard-scoped cache invalidation
// move with zero polling round-trips. The transports count bytes on the
// wire (lineconn.Stats.BytesWritten/BytesRead), and the serving
// experiments report measured bytes/verdict
// (MetricsSnapshot.ComputeBytesPerVerdict) — BenchmarkQuantizedClassify
// and BenchmarkBytesPerVerdict hold the regression line in
// BENCH_ci.json, and a CI fuzz-smoke job hammers every serialization
// codec's decoder with corrupt bytes.
//
// Every wire is plain JSON lines, one generation per tier. The gateway
// ↔ verdict-server leg is stateless, as the paper's service requires:
// gateway.Pool sends packed fingerprint reports with no handshake, and
// the verdict server keeps nothing about a connection between lines.
// The shard tier can be stateful, to exploit cross-request redundancy:
// a fleet's recurring device models submit near-identical F matrices,
// so a WireDict RemoteShard hello-negotiates a per-connection
// fingerprint dictionary (fingerprint.Dict — recurring matrices travel
// as 12-byte content-hash references or near-match diffs instead of
// full packed rows, with LRU eviction and transactional commit so only
// written lines mutate the pair) and per-direction device-type name
// interning. Dictionary generation equals connection incarnation: any
// decode failure answers a non-retryable error and severs, both ends
// rebuild empty, so reconnects — including mid-run shard kills — can
// never decode against state the peer no longer holds. The hello is a
// strict match: a peer whose reply names the wrong mode, another
// iotssp.ProtocolVersion, or no grant for the asked dictionary is
// refused at connect, never silently downgraded. iotssp.WireMode
// (WireOff or WireDict) threads the ask through RemoteShard; the
// distributed experiment replays a wire-off twin phase, asserts
// bit-equal verdicts, and fails unless the measured steady-state
// bytes/verdict gain reaches 5x (sentinel-eval -wire dict,
// -min-wire-gain; handshake, push and state-transfer bytes are carved
// out so the gain is steady-state classify cost, not amortized setup).
// BenchmarkDictClassify and the dict BytesPerVerdict case hold the
// codec's line in BENCH_ci.json, FuzzUnpackRef and FuzzUnpack smoke the
// decoders, and FuzzShardOp feeds arbitrary lines to the shard verbs.
//
// Stage one is a fused classification engine. Every enrolled forest is
// fused into one QuickScorer index (ml.ForestSet; Lucchese et al.,
// SIGIR 2015) and a single ForestSet.Votes pass answers all types × all
// samples, with one join barrier per batch rather than one per forest.
// Thresholds and samples are keyed once into order-preserving unsigned
// integers; each tree's leaves are numbered into 64-bit leaf words and
// each internal node is an entry whose mask clears its left subtree's
// leaves, sorted by key within each feature. A pass ANDs the masks of
// the entries a sample's keys exceed — per feature, one contiguous
// range — and each tree's exit leaf is the lowest set bit of its first
// non-zero word, read without a data-dependent branch. Rows are tiled
// and handed out through an atomic cursor to one persistent
// package-level worker pool, which single-fingerprint Identify rides
// too; batch inputs are dense row-major ml.SampleMatrix rows filled in
// place by fingerprint.FixedNInto and only read by a pass (its keys
// live in a pooled buffer), vote counts land in a caller-owned []int32,
// and accepts resolve against precomputed integer vote thresholds into
// a reusable bitmask — so the steady-state classify path
// (core.Bank.ClassifyVotes, and the pooled-scratch paths under
// Identify/IdentifyBatch/ClassifyBatch) allocates nothing per verdict.
// Verdicts are bit-identical to the per-forest oracle
// (core.Bank.ClassifyOracle/ClassifyBatchOracle, kept as the reference
// and benchmark baseline): integer tree votes are scheduling-
// independent and the threshold comparison is monotone in the count.
// The shard scatter shares one pooled matrix across local shards,
// core.Bank/ShardedBank.ClassifyStats surface measured ns/fingerprint,
// the service experiment re-asserts fused==oracle on its own cluster
// per run, and BenchmarkFusedClassify (with a 0 allocs/op gate and a
// benchstat old-vs-new comparison in CI) holds the regression line.
//
// Ingestion is a dataplane. internal/dataplane is the worker-per-core
// capture-to-verdict pipeline that feeds raw frames (a pcap file via
// dataplane.PcapSource, or an in-memory stream via dataplane.FrameSource)
// into the batched identification engine: one reader goroutine shards
// frames by source MAC — so each device's setup state (stateful Table-I
// feature extractor, setup-end detector, streaming fingerprint assembly)
// lives lock-free on exactly one worker — and hands them over in
// recycled batch arenas across bounded channels, applying backpressure
// instead of queue growth. The steady-state per-frame path allocates
// nothing: packet.DecodeBuf reuses layer structs and a payload arena,
// pcap.Reader.NextBuf reuses the record buffer, and the extractor's
// destination-IP counter is keyed by binary address identity
// (packet.IPKey). Captures complete in a deterministic order regardless
// of worker count and dataplane.RunIdentify flushes them into any
// gateway batch identifier as they stream out, overlapping
// identification with decode. The serial sniff.Monitor remains the
// reference semantics — pipeline captures are asserted bit-equal to it —
// and both bound their per-MAC state (sniff.Limits) with
// least-recently-active eviction, so MAC churn cannot grow either
// without bound. The dataplane experiment (experiments.RunDataplane,
// sentinel-eval -experiment dataplane) measures end-to-end packets/sec
// capture-to-verdict against the serial baseline, asserting verdict
// equality and a zero-allocation hot path; BenchmarkDecode,
// BenchmarkExtract and BenchmarkDataplane hold the regression line.
//
// See README.md for a walkthrough, DESIGN.md for the system inventory
// and experiment index, and EXPERIMENTS.md for paper-versus-measured
// results.
package repro
