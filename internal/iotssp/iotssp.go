// Package iotssp implements the IoT Security Service (paper §III-B): the
// cloud-side component that receives device fingerprints from Security
// Gateways, identifies device-types with the classifier bank, assesses
// their vulnerability, and returns the isolation level to enforce.
//
// # Wire protocol
//
// The service speaks a JSON-lines protocol over TCP: one Request object
// per line, one Response object per line. It is stateless with respect
// to its clients — it stores nothing about gateways between requests, so
// gateways can reach it through an anonymizing transport.
//
// Responses are not guaranteed to arrive in request order. Two things
// reorder them: the read pump answers malformed-request and
// backpressure errors in place, ahead of earlier well-formed requests
// still queued for the dispatcher; and verdicts are written as their
// batch flushes complete. Every response therefore echoes the request's
// MAC and its 1-based line number on the connection (the "line" field);
// clients pipelining several requests on one connection must correlate
// by line (MAC alone is ambiguous once two requests for one device are
// in flight — the pooled gateway client correlates by line).
//
// Two kinds of error response exist:
//
//   - Malformed requests (bad JSON, wrong feature dimensionality) get a
//     response whose "error" names the offending line number. The
//     connection stays open; subsequent lines are processed normally.
//   - Backpressure: when the server's request queue or a connection's
//     response queue is full, or the connection limit is reached, the
//     server answers {"error": ..., "retryable": true} instead of
//     queueing unboundedly. Clients should back off with jitter and
//     retry; the pooled gateway client does this automatically.
//
// # Serving architecture
//
// The Server runs a bounded accept loop (at most MaxConns live
// connections) with one read pump and one write pump per connection. A
// micro-batching dispatcher aggregates decoded requests across all
// connections into the bank's IdentifyBatch: each flush takes whatever
// is queued when the previous one returns, up to BatchSize, and never
// waits for more — so a lone request is identified at once, while
// under load the requests that queue during one flush form the next,
// and the service amortizes forest inference across the fleet. Served
// from a core.ShardedBank, each flush scatters across the bank's shards
// concurrently and gathers the merged verdicts. Duplicate in-flight
// fingerprints collapse to a single computation (singleflight); repeat
// setups of the same device model — the common fleet pattern — cost
// one cache probe instead of a forest pass.
//
// # Shard-versioned verdict cache
//
// Verdicts are cached in an LRU keyed by the canonical fingerprint
// hash (fingerprint.Hash). Each entry is tagged with the shard
// versions it depends on — the shards owning the device-types whose
// classifiers accepted the fingerprint, or every shard for an
// unknown-type verdict, since any future enrolment could claim it.
// Enrolling a new type bumps only the owning shard's version, so
// exactly the dependent entries turn stale (counted as Invalidations)
// while verdicts owned by other shards keep serving. With a
// single-shard bank the vector degenerates to one element and the
// cache behaves like a globally version-tagged one.
//
// # Replicated fleet topology
//
// One logical service can be served by several replicas — independent
// Servers on distinct listeners, composed by Fleet. Replicas sharing
// one Service share its bank and verdict cache (scale the serving
// spine: more accept loops, dispatchers and write pumps over one
// model); replicas with distinct Services form disjoint banks.
// Replicas are independent failure domains: coordination lives
// client-side in gateway.FleetPool, which consistent-hashes device
// MACs across replicas, ejects backends after consecutive failures,
// probes them back in with jittered backoff, and transparently fails
// retryable requests over to a healthy replica. A stopped Replica
// keeps its address so a revived one is found where the client's
// health probes left it.
//
// # Shard-serving mode and the v2 wire verbs
//
// The wire protocol's second generation distributes the classifier
// bank itself. A Server created with NewShardServer hosts one
// core.Bank shard of a logical core.ShardedBank and, instead of
// identify requests, answers the shard verbs — each a JSON line with
// an "op" field:
//
//   - "hello" negotiates: both server modes reply with their mode
//     ("verdict" or "shard") and protocol version, so a client learns
//     what it dialed before pipelining work. A RemoteShard sends it as
//     the first line of every fresh connection and aborts cleanly on a
//     mode or version mismatch.
//   - "classify" carries a whole scatter flush as packed F matrices
//     (the same codec the gateway clients use) and returns each
//     fingerprint's accepted types in shard enrolment order.
//   - "discriminate" runs stage two among this shard's candidates.
//   - "enroll" ships packed training fingerprints; the shard trains
//     the new classifier off the read pump and answers out of order
//     (line-echo correlation keeps pipelined classifies unaffected).
//   - "meta" returns the shard's type list and version.
//
// Every shard response is stamped with the shard's enrolment version.
// RemoteShard — the client side, implementing core.Shard — folds those
// stamps into a local version cache so Versions() on the logical bank
// stays a handful of atomic loads, and a remote enrolment invalidates
// exactly the dependent verdict-cache entries without polling.
// Version-1 clients that reach a shard endpoint get a clean retryable
// error naming the mode (never a malformed-line reply); shard verbs
// against a verdict endpoint fail non-retryably the same way. A shard
// served behind a Replica (NewShardReplica) restarts in place, and
// RemoteShard's reconnect/retry with jittered backoff carries
// in-flight scatters across the outage.
//
// Every client in this package — the legacy single-connection Client
// and RemoteShard's pipelined links alike — rides internal/lineconn,
// the shared line-correlated transport (line-echo correlation,
// connection-generation guard, fail-fast waiter semantics, lazy
// reconnect); RemoteShard plugs the hello negotiation in through the
// transport's handshake hook, so a mode or version mismatch fails the
// dial instead of surfacing mid-pipeline.
//
// # Replicated shard groups
//
// One partition can be served by several shard servers hosting
// bit-identical banks. ShardGroup composes N such members into a
// single health-aware core.Shard: reads (classify/discriminate/meta)
// round-robin across admitted members and fail over transparently when
// one dies mid-flight; consecutive failures eject a member from
// routing and a probing re-admission with jittered doubling backoff
// brings a revived one back — so a shard-server restart costs zero
// added latency for the logical bank above, instead of every in-flight
// scatter riding a single RemoteShard's deep retry loop until the
// server returns. Enrolments fan out to every member (each replica
// trains the type, keeping reads equivalent wherever they land) and
// the group's Version reconciles to the maximum member stamp, so a
// fan-out enrolment bumps the logical shard's version exactly once and
// the verdict cache invalidates its dependents exactly once, never
// once per replica.
//
// # The v3 compaction generation
//
// Protocol version 3 collapses the shard plane's wire cost in three
// ways, each negotiated at hello so mixed-version fleets degrade to
// the v2 cost instead of failing. OpSnapshot/OpRestore transfer a
// shard bank's whole trained state as one canonical blob
// (core.Bank.Snapshot): the control plane mints replacement group
// members by state transfer — O(snapshot bytes) instead of replaying
// and retraining the partition's enrolment history — and the blob's
// canonical encoding makes bit-identity a byte compare
// (core.SnapshotsEqual). Classify batches may carry delta-packed F
// matrices ("enc":"delta", fingerprint.PackDelta), shrinking rows that
// repeat within a fingerprint. And a client's hello may subscribe to
// the shard's delta stream: the server pushes OpDelta version bumps
// (uncorrelated lines, carried to the client by the transport's push
// hook) whenever the shard's state changes, so a subscribed front's
// version cache — and with it the verdict cache's shard-scoped
// invalidation — moves without any polling round-trip. A v2 peer
// answers the v3 verbs with a non-retryable unknown-op error and
// refuses delta-encoded batches; clients therefore keep every v3
// feature off unless the negotiated version reaches 3.
//
// # The v4 wire-compression generation
//
// Protocol version 4 makes connections stateful to attack the fleet's
// actual redundancy: the same device models submit near-identical F
// matrices across requests, so v3's intra-matrix deltas barely help.
// Both options ride the hello and degrade cleanly against older peers.
//
//	verb / field         direction        negotiation
//	hello dict:N         client asks      server replies dict:min(N, MaxDictSize)
//	                                      and both ends build an N-entry
//	                                      fingerprint.Dict for this
//	                                      connection; absent/0 = no dict
//	hello comp:"flate"   client asks      server echoes comp:"flate" and
//	                                      everything after the hello
//	                                      reply travels as framed flate
//	                                      (lineconn.FrameWriter); absent
//	                                      = plain lines
//	enc:"dict"           classify /       batch entries and identify
//	                     discriminate /   matrices are dictionary
//	                     identify         entries ('F' full, 'R' exact
//	                                      reference — 'R' plus the
//	                                      base64url of the 8-byte
//	                                      content hash — 'D' near-match
//	                                      diff); only valid once a dict
//	                                      was negotiated on this
//	                                      connection
//	interned names       both, shard      on a dict connection the
//	                     verbs only       recurring device-type names
//	                                      (discriminate candidates;
//	                                      classify accepts, best, score
//	                                      keys) travel through
//	                                      per-direction intern tables:
//	                                      "=name" defines the next
//	                                      index, "#k" references it,
//	                                      "~name" escapes a literal;
//	                                      map keys are reference-or-
//	                                      literal only (marshal order
//	                                      is not definition order)
//	op echo              response         a dict connection drops the
//	                                      op echo on correlated shard
//	                                      replies (the line echo
//	                                      correlates); hello replies
//	                                      and OpDelta pushes — which
//	                                      have no line — keep it
//
// A dictionary and its name tables are strictly per-connection state:
// encoder transactions commit only for lines actually written, the
// server decodes them in line order on the read pump, and a decode
// failure (a stale 'R' reference, an unknown "#k" name) answers a
// non-retryable error and severs the connection — both ends then
// rebuild empty state on the reconnect (the lineconn incarnation is
// the dictionary generation), so a stale reference can never decode
// against a cache the peer no longer holds. Servers with ProtocolCap
// < 4 and v3-or-older clients never see any of this: the hello fields
// go unanswered and the connection serves the v3 (or v2) wire forms
// unchanged.
package iotssp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/enforce"
	"repro/internal/fingerprint"
	"repro/internal/vulndb"
)

// ProtocolVersion is the wire protocol generation this build speaks.
// Version 1 is the original identify-only JSON-lines protocol (every
// line is a Request, every reply a Response). Version 2 adds the shard
// verbs (OpHello, OpMeta, OpClassify, OpDiscriminate, OpEnroll) spoken
// to a shard-serving Server, plus the OpHello negotiation both server
// modes answer so a client can discover what it is talking to before
// pipelining work onto the connection. Version 3 adds the compaction
// generation: the snapshot verbs (OpSnapshot, OpRestore — whole-shard
// state transfer), delta-packed classify batches (the "enc":"delta"
// encoding) and the hello's delta-stream subscription (the server
// pushes OpDelta version bumps to subscribers instead of clients
// learning of remote enrolments only from response stamps). Clients
// accept any peer >= 2 and simply keep the version-3 features off
// against an older one, so mixed-version fleets degrade to the v2 wire
// cost rather than failing. Version 4 adds connection-stateful wire
// compression: the hello negotiates a per-connection fingerprint
// dictionary (the "enc":"dict" encoding for classify, discriminate and
// identify matrices) and optionally framed flate transport compression
// ("comp":"flate"); see the package doc's v4 section for the
// negotiation table and coherence rules.
const ProtocolVersion = 4

// Wire operations (the Request/shardRequest "op" field). An empty op is
// a version-1 identify request.
const (
	// OpHello negotiates: both server modes answer with their mode
	// ("verdict" or "shard") and protocol version, so mismatched clients
	// fail cleanly at connect instead of mid-pipeline.
	OpHello = "hello"
	// OpMeta asks a shard server for its type list and version.
	OpMeta = "meta"
	// OpClassify runs stage one over a batch of packed fingerprints.
	OpClassify = "classify"
	// OpDiscriminate runs stage two among candidate types.
	OpDiscriminate = "discriminate"
	// OpEnroll trains a new device-type classifier on the shard.
	OpEnroll = "enroll"
	// OpRemove retires a device-type from the shard (tombstone drain:
	// the classifier is dropped, the prints stay for racing
	// discriminations, the version bumps once).
	OpRemove = "remove"
	// OpSnapshot asks a shard server for its bank's serialized trained
	// state (protocol >= 3). The control plane mints replacement group
	// members by transferring it instead of replaying enrolment history.
	OpSnapshot = "snapshot"
	// OpRestore replaces a shard server's bank state with a transferred
	// snapshot (protocol >= 3).
	OpRestore = "restore"
	// OpDelta is a server-initiated push (no line echo), sent to hello
	// subscribers when the shard's state changes: it carries the new
	// version and the changed type names, so a subscribed client's
	// version cache moves without a classify round-trip.
	OpDelta = "delta"
)

// deltaEncoding is the shardRequest Enc value selecting delta-packed F
// matrices (fingerprint.PackDelta) in classify batches, negotiated at
// protocol >= 3.
const deltaEncoding = "delta"

// DictEncoding is the Enc value selecting dictionary-coded F matrices
// (fingerprint.Dict entries) in classify, discriminate and identify
// requests — valid only on a connection whose hello negotiated a
// dictionary (protocol >= 4).
const DictEncoding = "dict"

// CompFlate is the hello Comp value asking for framed flate transport
// compression after the handshake (protocol >= 4).
const CompFlate = "flate"

// DefaultDictSize is the per-connection dictionary capacity clients
// propose at hello: enough for a fleet's distinct recurring device
// models without holding a one-off matrix forever.
const DefaultDictSize = 512

// MaxDictSize caps the dictionary capacity a server agrees to,
// bounding per-connection memory whatever a client asks for.
const MaxDictSize = 4096

// WireMode selects a client stack's v4 wire compression: off (the v3
// wire forms), the per-connection fingerprint dictionary, or the
// dictionary plus framed flate transport compression. Zero value is
// off, so existing configs are unchanged.
type WireMode int

const (
	// WireOff sends the pre-v4 wire forms (packed or delta-packed
	// matrices, plain lines).
	WireOff WireMode = iota
	// WireDict negotiates the per-connection fingerprint dictionary.
	WireDict
	// WireDictFlate negotiates the dictionary plus framed flate
	// transport compression for the residual bytes.
	WireDictFlate
)

// String renders the mode as the sentinel-eval -wire flag spells it.
func (m WireMode) String() string {
	switch m {
	case WireDict:
		return "dict"
	case WireDictFlate:
		return "dict+flate"
	default:
		return "off"
	}
}

// ParseWireMode parses the sentinel-eval -wire flag values.
func ParseWireMode(s string) (WireMode, error) {
	switch s {
	case "", "off":
		return WireOff, nil
	case "dict":
		return WireDict, nil
	case "dict+flate", "flate+dict":
		return WireDictFlate, nil
	}
	return WireOff, fmt.Errorf("iotssp: unknown wire mode %q (want off, dict or dict+flate)", s)
}

// Request is one identification request from a Security Gateway.
type Request struct {
	// Op selects the wire operation. Empty means identify (the version-1
	// protocol); OpHello asks the server to introduce itself. The shard
	// verbs are only valid against a shard-serving server — a verdict
	// server answers them with a non-retryable error naming its mode.
	Op string `json:"op,omitempty"`
	// Fingerprint is the device's fingerprint report (MAC + F matrix).
	Fingerprint fingerprint.Report `json:"fingerprint"`
	// V is the client's protocol version, sent with OpHello (protocol
	// >= 4 clients negotiating wire compression; older clients omit it).
	V int `json:"v,omitempty"`
	// Comp and Dict are the OpHello wire-compression asks: framed flate
	// transport compression (CompFlate) and a per-connection fingerprint
	// dictionary of the given capacity. The server's hello reply echoes
	// what it agreed to.
	Comp string `json:"comp,omitempty"`
	Dict int    `json:"dict,omitempty"`
	// Enc marks how Fingerprint's matrix travels: empty for the packed
	// form, DictEncoding for a dictionary entry (Fingerprint.Packed then
	// holds the entry; protocol >= 4, negotiated dictionary required).
	Enc string `json:"enc,omitempty"`
}

// Response is the service's answer.
type Response struct {
	// MAC echoes the device MAC from the request so the gateway can
	// correlate concurrent requests.
	MAC string `json:"mac"`
	// Line echoes the 1-based request line number on the connection that
	// carried it (0 for responses not tied to a connection line, e.g.
	// from Service.Handle directly). With out-of-order responses it
	// gives clients an exact correlation key.
	Line uint64 `json:"line,omitempty"`
	// Known reports whether any classifier accepted the fingerprint.
	Known bool `json:"known"`
	// DeviceType is the identified type (empty if unknown).
	DeviceType string `json:"device_type,omitempty"`
	// Stage is the pipeline stage that decided ("classification",
	// "discrimination" or "none").
	Stage string `json:"stage"`
	// Level is the isolation level to enforce ("strict", "restricted",
	// "trusted").
	Level string `json:"level"`
	// PermittedEndpoints lists the cloud endpoints a restricted device
	// may contact, as dotted-quad strings.
	PermittedEndpoints []string `json:"permitted_endpoints,omitempty"`
	// Vulnerabilities lists the advisory IDs behind a restricted verdict.
	Vulnerabilities []string `json:"vulnerabilities,omitempty"`
	// NotifyUser is set when the device has flaws reachable over
	// channels the gateway cannot filter (Bluetooth, LTE, proprietary
	// radios): isolation is insufficient and the user should remove the
	// device (§III-C3). UncontrolledChannels names the channels.
	NotifyUser           bool     `json:"notify_user,omitempty"`
	UncontrolledChannels []string `json:"uncontrolled_channels,omitempty"`
	// Error is set when the request could not be processed.
	Error string `json:"error,omitempty"`
	// Retryable marks an error as transient server backpressure (request
	// queue full, connection limit): the request was well-formed and may
	// be retried after a backoff. Malformed-request errors are never
	// retryable.
	Retryable bool `json:"retryable,omitempty"`
	// Mode, V, Comp and Dict surface the server's OpHello answer to a
	// verdict-plane client (the reply travels as a shardResponse on the
	// wire; these mirror the fields a gateway.Pool needs to read the
	// negotiation): serving mode, protocol cap, and the agreed wire
	// compression. Empty on ordinary identify responses.
	Mode string `json:"mode,omitempty"`
	V    int    `json:"v,omitempty"`
	Comp string `json:"comp,omitempty"`
	Dict int    `json:"dict,omitempty"`
}

// CorrelationLine implements lineconn.Message: pipelined clients
// correlate responses to request lines by the echoed line number.
func (r Response) CorrelationLine() uint64 { return r.Line }

// ParseLevel converts a wire level name back to the enforcement type.
func ParseLevel(s string) (enforce.IsolationLevel, error) {
	switch s {
	case "strict":
		return enforce.Strict, nil
	case "restricted":
		return enforce.Restricted, nil
	case "trusted":
		return enforce.Trusted, nil
	default:
		return 0, fmt.Errorf("iotssp: unknown isolation level %q", s)
	}
}

// DefaultCacheSize is the verdict cache capacity NewService selects.
const DefaultCacheSize = 4096

// Bank is the identification backend a Service serves from: the plain
// single-shard core.Bank or the scatter/gather core.ShardedBank.
// Implementations must be safe for concurrent use; Versions exposes the
// per-shard enrolment version vector the verdict cache tags entries
// with, and ShardOf maps an enrolled type to its owning shard so a
// verdict's cache entry depends only on the shards that produced it.
type Bank interface {
	Identify(fp *fingerprint.Fingerprint) core.Result
	IdentifyBatch(fps []*fingerprint.Fingerprint, workers int) []core.Result
	Versions() []uint64
	ShardOf(name string) (int, bool)
}

// Service identifies fingerprints and maps device-types to isolation
// levels, caching verdicts by fingerprint hash. It is safe for
// concurrent use — including concurrent use from several Servers, the
// replicated-fleet topology where multiple listeners share one bank
// and one verdict cache.
type Service struct {
	bank Bank
	db   *vulndb.DB
	// endpoints maps device-type to the permitted cloud endpoints used
	// for the Restricted level.
	endpoints map[string][]string
	// cache is the LRU+singleflight verdict cache; nil disables caching.
	cache *verdictCache
}

// ServiceConfig configures a Service. The zero value selects the
// defaults: no vulnerability repository, no per-type endpoints, and the
// default verdict cache.
type ServiceConfig struct {
	// DB is the vulnerability repository consulted per verdict; nil
	// serves without one.
	DB *vulndb.DB
	// Endpoints maps device-type to the permitted cloud endpoints used
	// for the Restricted level.
	Endpoints map[string][]string
	// CacheSize is the verdict cache capacity. 0 selects
	// DefaultCacheSize; a negative value disables caching (every request
	// computes a verdict) — the per-request baseline the load
	// experiments compare against.
	CacheSize int
}

// NewService assembles a service over a trained bank.
func NewService(bank Bank, cfg ServiceConfig) *Service {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	eps := make(map[string][]string, len(cfg.Endpoints))
	for t, list := range cfg.Endpoints {
		eps[t] = append([]string(nil), list...)
	}
	return &Service{bank: bank, db: cfg.DB, endpoints: eps, cache: newVerdictCache(cfg.CacheSize)}
}

// Bank returns the identification backend the service serves from.
func (s *Service) Bank() Bank { return s.bank }

// CacheStats snapshots the verdict cache counters (zero when caching is
// disabled).
func (s *Service) CacheStats() CacheStats { return s.cache.stats() }

// depsFor derives the cache dependencies of a verdict computed against
// the given version snapshot: the shards owning the accepted types, or
// every shard for an unknown verdict (any future enrolment could claim
// it).
func (s *Service) depsFor(res core.Result, snapshot []uint64) verdictDeps {
	if !res.Known || len(res.Accepted) == 0 {
		return depsAll(snapshot)
	}
	shards := make([]int, 0, len(res.Accepted))
	for _, name := range res.Accepted {
		if sh, ok := s.bank.ShardOf(name); ok {
			shards = append(shards, sh)
		}
	}
	if len(shards) < len(res.Accepted) {
		// An accepted type has no owner on record (it raced an Enroll
		// rollback); be conservative.
		return depsAll(snapshot)
	}
	return depsOn(snapshot, shards)
}

// Handle processes one request.
func (s *Service) Handle(req Request) Response {
	mac, fp, err := fingerprint.UnmarshalReportStruct(req.Fingerprint)
	if err != nil {
		return Response{Error: err.Error()}
	}
	return s.Identify(mac, fp)
}

// Identify returns the verdict for one decoded fingerprint, consulting
// the verdict cache. Concurrent calls with the same fingerprint
// collapse to one bank identification.
func (s *Service) Identify(mac string, fp *fingerprint.Fingerprint) Response {
	resp := s.verdict(fp)
	resp.MAC = mac
	return resp
}

// verdict computes or recalls the MAC-less verdict for fp. The
// version-vector snapshot is taken per request — a few atomic loads
// and one small allocation, noise next to the JSON encode every
// response pays, and the vector must outlive the call anyway when a
// miss registers it on the singleflight flight.
func (s *Service) verdict(fp *fingerprint.Fingerprint) Response {
	if s.cache == nil {
		return s.assemble(s.bank.Identify(fp))
	}
	snapshot := s.bank.Versions()
	resp, _ := s.cache.do(fp.Hash(), snapshot, func() (Response, verdictDeps, bool) {
		res := s.bank.Identify(fp)
		return s.assemble(res), s.depsFor(res, snapshot), true
	})
	return resp
}

// assemble turns an identification result into the wire verdict:
// vulnerability assessment, isolation level, permitted endpoints and
// user notification. The slices in the returned Response are shared
// with the cache and must be treated as immutable.
func (s *Service) assemble(res core.Result) Response {
	resp := Response{
		Known: res.Known,
		Stage: res.Stage.String(),
	}
	if !res.Known {
		resp.Level = enforce.Strict.String()
		return resp
	}
	resp.DeviceType = res.Type
	assessment := s.db.Assess(res.Type)
	level := assessment.Level()
	resp.Level = level.String()
	if level == enforce.Restricted {
		resp.PermittedEndpoints = append([]string(nil), s.endpoints[res.Type]...)
		for _, v := range assessment.Vulns {
			resp.Vulnerabilities = append(resp.Vulnerabilities, v.ID)
		}
	}
	if notify, channels := assessment.RequiresUserNotification(); notify {
		resp.NotifyUser = true
		resp.UncontrolledChannels = channels
	}
	return resp
}

// HandleBatch processes a batch of requests and returns responses in
// input order. Well-formed requests flow through IdentifyBatch (cache,
// dedup, batched bank inference); malformed ones get per-request error
// responses without poisoning the rest of the batch.
func (s *Service) HandleBatch(reqs []Request, workers int) []Response {
	out := make([]Response, len(reqs))
	macs := make([]string, 0, len(reqs))
	fps := make([]*fingerprint.Fingerprint, 0, len(reqs))
	idx := make([]int, 0, len(reqs))
	for i, req := range reqs {
		mac, fp, err := fingerprint.UnmarshalReportStruct(req.Fingerprint)
		if err != nil {
			out[i] = Response{Error: err.Error()}
			continue
		}
		macs = append(macs, mac)
		fps = append(fps, fp)
		idx = append(idx, i)
	}
	for j, resp := range s.IdentifyBatch(macs, fps, workers) {
		out[idx[j]] = resp
	}
	return out
}

// IdentifyBatch returns verdicts for decoded fingerprints in input
// order, stamping macs[i] on the i-th response. Repeat fingerprints are
// served from the verdict cache; the distinct misses are deduplicated
// and identified in one Bank.IdentifyBatch pass fanned across workers
// (<= 0 selects GOMAXPROCS); duplicates in flight elsewhere are waited
// on rather than recomputed.
func (s *Service) IdentifyBatch(macs []string, fps []*fingerprint.Fingerprint, workers int) []Response {
	out := make([]Response, len(fps))
	if len(fps) == 0 {
		return out
	}
	if s.cache == nil {
		for i, res := range s.bank.IdentifyBatch(fps, workers) {
			out[i] = s.assemble(res)
			out[i].MAC = macs[i]
		}
		return out
	}

	snapshot := s.bank.Versions()
	// lead is one distinct fingerprint this batch must compute, and
	// every batch index waiting on it.
	type lead struct {
		key  uint64
		fp   *fingerprint.Fingerprint
		f    *flight
		idxs []int
	}
	type waiter struct {
		idx int
		fp  *fingerprint.Fingerprint
		f   *flight
	}
	var leads []*lead
	byKey := make(map[uint64]*lead)
	var waits []waiter
	for i, fp := range fps {
		key := fp.Hash()
		if l := byKey[key]; l != nil {
			// In-batch duplicate: ride the leader's computation.
			l.idxs = append(l.idxs, i)
			s.cache.noteShared()
			continue
		}
		resp, state, f := s.cache.begin(key, snapshot)
		switch state {
		case beginHit:
			out[i] = resp
		case beginShared:
			waits = append(waits, waiter{idx: i, fp: fp, f: f})
		default: // beginLeader
			l := &lead{key: key, fp: fp, f: f, idxs: []int{i}}
			byKey[key] = l
			leads = append(leads, l)
		}
	}

	if len(leads) > 0 {
		batch := make([]*fingerprint.Fingerprint, len(leads))
		for j, l := range leads {
			batch[j] = l.fp
		}
		results := s.bank.IdentifyBatch(batch, workers)
		for j, l := range leads {
			resp := s.assemble(results[j])
			s.cache.finish(l.key, l.f, resp, s.depsFor(results[j], snapshot), true)
			for _, i := range l.idxs {
				out[i] = resp
			}
		}
	}

	// Fingerprints being computed by concurrent callers (Handle or
	// another batch): wait for their verdicts.
	for _, w := range waits {
		<-w.f.done
		if w.f.ok {
			out[w.idx] = w.f.resp
		} else {
			out[w.idx] = s.verdict(w.fp)
		}
	}

	for i := range out {
		out[i].MAC = macs[i]
	}
	return out
}
