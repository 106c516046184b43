// Package iotssp implements the IoT Security Service (paper §III-B): the
// cloud-side component that receives device fingerprints from Security
// Gateways, identifies device-types with the classifier bank, assesses
// their vulnerability, and returns the isolation level to enforce.
//
// # Wire protocol
//
// The service speaks two wires over TCP. Identify requests from
// Security Gateways travel as binary frames, one request frame and one
// verdict frame each (frame.go has the layout); everything else is
// JSON lines, one request object per line and one reply object per
// line. The service is stateless with respect to its clients — it
// stores nothing about gateways between requests, so gateways can
// reach it through an anonymizing transport.
//
// Each message's first byte tells the two apart: an identify frame
// opens with its kind byte (0x01), anything else is a JSON line. Both
// server modes read both, so a client at the wrong kind of endpoint is
// answered at once in its own wire, never left to wait out a deadline.
//
// A Server runs in one of two modes. A verdict server (NewServer)
// answers identify frames for Security Gateways; a shard server
// (NewShardServer) hosts one core.Bank shard of a distributed logical
// bank and answers the shard verbs. Both answer the hello. One table
// covers every message:
//
//	message            mode     fields and effect
//	identify frame     verdict  the MAC and the F matrix as
//	                            fingerprint.AppendBinary varints; the
//	                            reply is a verdict frame (Response).
//	                            A shard server refuses it retryably
//	(JSON identify)    verdict  a line without an "op": refused
//	                            non-retryably (identify travels only
//	                            as frames)
//	hello              both     the reply carries mode and v
//	                            (ProtocolVersion). A shard hello may
//	                            ask dict:N (a per-connection
//	                            fingerprint.Dict of N entries), granted
//	                            as dict:min(N, MaxDictSize), and
//	                            subscribes the connection to pushes. A
//	                            verdict server grants nothing: its
//	                            connections hold no state
//	meta               shard    reply: the shard's type list
//	classify           shard    batch of F matrices, enc "delta"
//	                            (fingerprint.PackDelta) or "dict";
//	                            reply: each entry's accepted types in
//	                            shard enrolment order
//	discriminate       shard    one packed F matrix (or enc "dict") and
//	                            candidates: stage two among them
//	enroll             shard    type and packed training prints; trains
//	                            off the read pump, answers out of order
//	remove             shard    type: retires its classifier
//	snapshot, restore  shard    the bank's canonical trained state
//	                            (core.Bank.Snapshot), out or in
//	delta              shard    a push, no line echo: the new version
//	                            and the changed type names
//
// Every JSON line travels plain: one object per '\n'-terminated line.
// RemoteShard opens every connection with a hello and fails the dial
// unless the reply names ModeShard, v equals this build's
// ProtocolVersion, and the reply grants the dictionary its WireMode
// asked for — a grant smaller than the ask is fine (Hello.Match).
// There is no downgrade: a peer from another build generation is
// refused at connect, not served a lesser wire. gateway.Pool sends no
// hello; its identify frames need nothing negotiated.
//
// On a shard dictionary connection, "enc":"dict" matrices are dictionary
// entries ('F' full, 'R' plus the base64url of the 8-byte content hash
// for an exact reference, 'D' a near-match diff); the recurring
// device-type names (discriminate candidates; classify accepts, best,
// score keys) travel through per-direction intern tables — "=name"
// defines the next index, "#k" references it, "~name" escapes a
// literal, and map keys are reference-or-literal only (marshal order is
// not definition order); and correlated shard replies drop the op echo
// (the line echo correlates; hello replies and pushes keep theirs).
// "enc":"dict" without a negotiated dictionary and a classify batch
// with an empty or unknown enc are refused non-retryably.
//
// A dictionary and its name tables are strictly per-connection state:
// encoder transactions commit only for lines actually written, the
// server decodes them in line order on the read pump, and a decode
// failure (a stale 'R' reference, an unknown "#k" name) answers a
// non-retryable error and severs the connection — both ends then
// rebuild empty state on the reconnect (the lineconn incarnation is
// the dictionary generation), so a stale reference can never decode
// against a cache the peer no longer holds.
//
// Responses are not guaranteed to arrive in request order. Two things
// reorder them: the read pump answers malformed-request and
// backpressure errors in place, ahead of earlier well-formed requests
// still queued for the dispatcher; and verdicts are written as their
// batch flushes complete. Every response therefore echoes the
// request's 1-based message number on the connection (its line, frames
// and JSON lines counted alike); clients pipelining several requests
// on one connection correlate by line (a MAC would be ambiguous once
// two requests for one device are in flight, so a verdict frame
// carries none).
//
// Two kinds of error response exist:
//
//   - Malformed requests (bad JSON, a matrix that is truncated or not
//     a whole number of packet columns) get a response whose error
//     names the offending line number. The connection stays open;
//     subsequent messages are processed normally. Only a frame header
//     the stream cannot be read past (a body over the frame cap, or
//     cut short) severs the connection after its answer.
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
// and the service amortizes forest inference across the fleet. The
// read pump checks each frame's varints without allocating and keys it
// from its matrix bytes; the dispatcher decodes only the requests that
// lead a cache miss, so a cache hit never builds a Fingerprint. Served
// from a core.ShardedBank, each flush scatters across the bank's shards
// concurrently and gathers the merged verdicts. Duplicate in-flight
// fingerprints collapse to a single computation (singleflight); repeat
// setups of the same device model — the common fleet pattern — cost
// one cache probe instead of a forest pass.
//
// # Shard-versioned verdict cache
//
// Identification results (core.Result) are cached in an LRU keyed by
// maphash of the fingerprint's canonical bytes (fingerprint.AppendBinary,
// exactly what an identify frame carries) under a random seed per
// Service: in-process callers (Service.Identify, IdentifyBatch) encode
// the fingerprint they hold and share the frames' entries, and since
// the server never takes a hash from a client, a hostile gateway
// cannot aim a collision at a popular model's entry. The isolation
// level, advisories and permitted endpoints are assessed per request,
// cache hits included, so an advisory added to the vulnerability
// repository re-levels the very next verdict. Each entry is tagged
// with the shard versions it depends on — the shards owning the
// device-types whose classifiers accepted the fingerprint, or every
// shard for an unknown-type verdict, since any future enrolment could
// claim it. Enrolling a new type bumps only the owning shard's
// version, so exactly the dependent entries turn stale (counted as
// Invalidations) while results owned by other shards keep serving.
// With a single-shard bank the vector degenerates to one element and
// the cache behaves like a globally version-tagged one.
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
// # Shard-serving mode
//
// A shard server distributes the classifier bank itself: it answers
// the shard verbs straight off each connection's read pump (a whole
// scatter flush arrives as one classify, so there is no dispatcher),
// and stamps every reply with the shard's enrolment version.
// RemoteShard — the client side, implementing core.Shard — folds those
// stamps, and the delta lines its hello subscribed to, into a local
// version cache, so Versions() on the logical bank stays a handful of
// atomic loads and a remote enrolment invalidates exactly the
// dependent verdict-cache entries without polling. The control plane
// mints replacement group members by snapshot transfer — O(snapshot
// bytes) instead of replaying and retraining the partition's enrolment
// history — and the snapshot's canonical encoding makes bit-identity a
// byte compare (core.SnapshotsEqual). Identify frames that reach a
// shard endpoint get a clean retryable verdict-frame refusal naming
// the mode (never a malformed-line reply); shard verbs against a
// verdict endpoint fail non-retryably the same way. A shard served behind a Replica
// (NewShardReplica) restarts in place, and RemoteShard's
// reconnect/retry with jittered backoff carries in-flight scatters
// across the outage.
//
// RemoteShard's pipelined links ride internal/lineconn, the shared
// line-correlated transport (line-echo correlation, connection-
// generation guard, fail-fast waiter semantics, lazy reconnect) that
// gateway.Pool rides too; the hello plugs in through the transport's
// handshake hook, so a mode or version mismatch fails the dial instead
// of surfacing mid-pipeline.
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
package iotssp

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/enforce"
	"repro/internal/fingerprint"
	"repro/internal/vulndb"
)

// ProtocolVersion is the wire generation this build speaks. Hello
// replies carry it, and clients refuse a peer whose reply differs.
const ProtocolVersion = 4

// Wire operations (the JSON lines' "op" field).
const (
	// OpHello negotiates: both server modes answer with their mode
	// ("verdict" or "shard") and ProtocolVersion — a shard server also
	// with its dictionary grant — so mismatched clients fail cleanly at
	// connect instead of mid-pipeline.
	OpHello = "hello"
	// OpMeta asks a shard server for its type list and version.
	OpMeta = "meta"
	// OpClassify runs stage one over a batch of encoded fingerprints.
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
	// state. The control plane mints replacement group members by
	// transferring it instead of replaying enrolment history.
	OpSnapshot = "snapshot"
	// OpRestore replaces a shard server's bank state with a transferred
	// snapshot.
	OpRestore = "restore"
	// OpDelta is a server-initiated push (no line echo), sent to every
	// connection that said hello when the shard's state changes: it
	// carries the new version and the changed type names, so the
	// client's version cache moves without a classify round-trip.
	OpDelta = "delta"
)

// deltaEncoding is the Enc value selecting delta-packed F matrices
// (fingerprint.PackDelta) in classify batches off a dictionary.
const deltaEncoding = "delta"

// DictEncoding is the Enc value selecting dictionary-coded F matrices
// (fingerprint.Dict entries) in classify and discriminate requests —
// valid only on a shard connection whose hello negotiated a
// dictionary.
const DictEncoding = "dict"

// DefaultDictSize is the per-connection dictionary capacity a WireDict
// RemoteShard asks for at hello: enough for a fleet's distinct
// recurring device models without holding a one-off matrix forever.
const DefaultDictSize = 512

// MaxDictSize caps the dictionary capacity a server agrees to,
// bounding per-connection memory whatever a client asks for.
const MaxDictSize = 4096

// WireMode selects a RemoteShard's wire: off (no connection state:
// delta-packed classify batches, packed discriminate matrices) or the
// per-connection fingerprint dictionary. The zero value is off.
type WireMode int

const (
	// WireOff keeps connections stateless.
	WireOff WireMode = iota
	// WireDict negotiates the per-connection fingerprint dictionary.
	WireDict
)

// String renders the mode as the sentinel-eval -wire flag spells it.
func (m WireMode) String() string {
	if m == WireDict {
		return "dict"
	}
	return "off"
}

// ParseWireMode parses the sentinel-eval -wire flag values.
func ParseWireMode(s string) (WireMode, error) {
	switch s {
	case "", "off":
		return WireOff, nil
	case "dict":
		return WireDict, nil
	}
	return WireOff, fmt.Errorf("iotssp: unknown wire mode %q (want off or dict)", s)
}

// helloLine is the handshake line a RemoteShard opens a connection
// with: the hello plus, for WireDict, the DefaultDictSize ask.
func helloLine(wire WireMode) []byte {
	req := shardRequest{Op: OpHello}
	if wire == WireDict {
		req.Dict = DefaultDictSize
	}
	line, _ := json.Marshal(req)
	return append(line, '\n')
}

// Hello is the negotiation a hello reply carries, embedded in both
// server modes' reply lines: the serving mode, the protocol version
// and, from a shard server, the dictionary grant. It is empty on every
// other reply.
type Hello struct {
	Mode string `json:"mode,omitempty"`
	V    int    `json:"v,omitempty"`
	// Dict is the agreed per-connection dictionary capacity.
	Dict int `json:"dict,omitempty"`
}

// Match is the strict hello check RemoteShard applies before a fresh
// connection serves traffic: the reply must name ModeShard, speak
// exactly ProtocolVersion, and grant the dictionary that wire asked
// for. The error names the mismatch.
func (h Hello) Match(wire WireMode) error {
	switch {
	case h.Mode != ModeShard:
		return fmt.Errorf("peer is not a %s server (mode %q)", ModeShard, h.Mode)
	case h.V != ProtocolVersion:
		return fmt.Errorf("peer speaks protocol v%d, want v%d", h.V, ProtocolVersion)
	case wire == WireDict && h.Dict <= 0:
		return fmt.Errorf("peer granted no fingerprint dictionary (wire %s)", wire)
	}
	return nil
}

// Response is the service's answer.
type Response struct {
	// MAC is the device MAC the verdict is for. It does not travel: a
	// frame client stamps the MAC it asked about.
	MAC string
	// Line echoes the 1-based message number of the request on the
	// connection that carried it (0 for verdicts not tied to a
	// connection, e.g. from Service.Identify directly). With
	// out-of-order responses it gives clients an exact correlation key.
	Line uint64
	// Known reports whether any classifier accepted the fingerprint.
	Known bool
	// DeviceType is the identified type (empty if unknown).
	DeviceType string
	// Stage is the pipeline stage that decided ("classification",
	// "discrimination" or "none").
	Stage string
	// Level is the isolation level to enforce ("strict", "restricted",
	// "trusted").
	Level string
	// PermittedEndpoints lists the cloud endpoints a restricted device
	// may contact, as dotted-quad strings.
	PermittedEndpoints []string
	// Vulnerabilities lists the advisory IDs behind a restricted verdict.
	Vulnerabilities []string
	// NotifyUser is set when the device has flaws reachable over
	// channels the gateway cannot filter (Bluetooth, LTE, proprietary
	// radios): isolation is insufficient and the user should remove the
	// device (§III-C3). UncontrolledChannels names the channels.
	NotifyUser           bool
	UncontrolledChannels []string
	// Error is set when the request could not be processed.
	Error string
	// Retryable marks an error as transient server backpressure (request
	// queue full, connection limit): the request was well-formed and may
	// be retried after a backoff. Malformed-request errors are never
	// retryable.
	Retryable bool
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
// Implementations must be safe for concurrent use; AppendVersions
// appends the per-shard enrolment version vector the verdict cache tags
// entries with, and ShardOf maps an enrolled type to its owning shard so a
// verdict's cache entry depends only on the shards that produced it.
type Bank interface {
	Identify(fp *fingerprint.Fingerprint) core.Result
	IdentifyBatch(fps []*fingerprint.Fingerprint, workers int) []core.Result
	AppendVersions(dst []uint64) []uint64
	ShardOf(name string) (int, bool)
}

// Service identifies fingerprints and maps device-types to isolation
// levels, caching verdicts by a seeded hash of the fingerprint's
// canonical bytes. It is safe for concurrent use — including
// concurrent use from several Servers, the replicated-fleet topology
// where multiple listeners share one bank and one verdict cache.
type Service struct {
	bank Bank
	// seed keys the verdict cache: a fresh random seed per Service, so
	// no client can aim a hash collision at another print's entry.
	seed maphash.Seed
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
	return &Service{bank: bank, seed: maphash.MakeSeed(), db: cfg.DB, endpoints: eps, cache: newVerdictCache(cfg.CacheSize)}
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

// keyBufs recycles the scratch in-process callers encode a fingerprint
// into to key it.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// keyBytes is the verdict-cache key of a matrix in
// fingerprint.AppendBinary form: what identify frames carry.
func (s *Service) keyBytes(matrix []byte) uint64 { return maphash.Bytes(s.seed, matrix) }

// key is the verdict-cache key of a decoded fingerprint. It hashes the
// same canonical bytes a frame carries, so in-process callers and
// frame clients share cache entries.
func (s *Service) key(fp *fingerprint.Fingerprint) uint64 {
	buf := keyBufs.Get().(*[]byte)
	*buf = fingerprint.AppendBinary((*buf)[:0], fp)
	k := s.keyBytes(*buf)
	keyBufs.Put(buf)
	return k
}

// Identify returns the verdict for one decoded fingerprint, consulting
// the verdict cache. Concurrent calls with the same fingerprint
// collapse to one bank identification.
func (s *Service) Identify(mac string, fp *fingerprint.Fingerprint) Response {
	var key uint64
	if s.cache != nil {
		key = s.key(fp)
	}
	resp := s.verdict(key, fp)
	resp.MAC = mac
	return resp
}

// verdict computes or recalls fp's identification under key and
// assesses it into the MAC-less verdict. The version-vector snapshot is
// taken per request — a few atomic loads and one small allocation, and
// the vector must outlive the call anyway when a miss registers it on
// the singleflight flight.
func (s *Service) verdict(key uint64, fp *fingerprint.Fingerprint) Response {
	if s.cache == nil {
		return s.assemble(s.bank.Identify(fp))
	}
	snapshot := s.bank.AppendVersions(nil)
	res, _ := s.cache.do(key, snapshot, func() (core.Result, verdictDeps, bool) {
		res := s.bank.Identify(fp)
		return res, s.depsFor(res, snapshot), true
	})
	return s.assemble(res)
}

// assemble turns an identification result into the wire verdict:
// vulnerability assessment, isolation level, permitted endpoints and
// user notification. It runs on every request, cache hits included, so
// an advisory added to the repository re-levels the next verdict. It
// allocates nothing: the endpoint, advisory and channel slices are
// shared with the service and the repository and must be treated as
// immutable.
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
	v := s.db.Verdict(res.Type)
	resp.Level = v.Level.String()
	if v.Level == enforce.Restricted {
		resp.PermittedEndpoints = s.endpoints[res.Type]
		resp.Vulnerabilities = v.IDs
	}
	if len(v.Channels) > 0 {
		resp.NotifyUser = true
		resp.UncontrolledChannels = v.Channels
	}
	return resp
}

// IdentifyBatch returns verdicts for decoded fingerprints in input
// order, stamping macs[i] on the i-th response. Repeat fingerprints are
// served from the verdict cache; the distinct misses are deduplicated
// and identified in one Bank.IdentifyBatch pass fanned across workers
// (<= 0 selects GOMAXPROCS); duplicates in flight elsewhere are waited
// on rather than recomputed.
func (s *Service) IdentifyBatch(macs []string, fps []*fingerprint.Fingerprint, workers int) []Response {
	var keys []uint64
	if s.cache != nil {
		keys = make([]uint64, len(fps))
		for i, fp := range fps {
			keys[i] = s.key(fp)
		}
	}
	var sc flushScratch
	out := s.identifyKeyed(&sc, len(fps), keys, func(i int) *fingerprint.Fingerprint { return fps[i] }, workers)
	for i := range out {
		out[i].MAC = macs[i]
	}
	return out
}

// identifyMatrices is IdentifyBatch for the server's dispatcher:
// matrices are checked fingerprint.AppendBinary encodings and keys
// their cache keys. Only the flights this batch leads are decoded, so a
// cache hit never builds a Fingerprint. The verdicts live in sc and are
// valid until its next use.
func (s *Service) identifyMatrices(sc *flushScratch, keys []uint64, matrices [][]byte, workers int) []Response {
	return s.identifyKeyed(sc, len(matrices), keys, func(i int) *fingerprint.Fingerprint {
		fp, err := fingerprint.DecodeBinary(matrices[i])
		if err != nil {
			// Unreachable: DecodeBinary decodes whatever CheckBinary
			// passed (FuzzDecodeBinary holds them to it).
			panic("iotssp: a checked matrix does not decode: " + err.Error())
		}
		return fp
	}, workers)
}

// flushScratch is what identifyKeyed reuses across the calls of one
// caller (the server's dispatcher): the verdict slice and the version
// snapshot. With it, a flush whose every request hits allocates
// nothing.
type flushScratch struct {
	out      []Response
	snapshot []uint64
}

// identifyKeyed is the batch verdict path over n requests: keys are
// their cache keys (nil when caching is disabled) and fp(i) yields the
// i-th fingerprint, called only when the bank must see it. The
// verdicts live in sc.
func (s *Service) identifyKeyed(sc *flushScratch, n int, keys []uint64, fp func(int) *fingerprint.Fingerprint, workers int) []Response {
	out := slices.Grow(sc.out[:0], n)[:n]
	sc.out = out
	if n == 0 {
		return out
	}
	if s.cache == nil {
		fps := make([]*fingerprint.Fingerprint, n)
		for i := range fps {
			fps[i] = fp(i)
		}
		for i, res := range s.bank.IdentifyBatch(fps, workers) {
			out[i] = s.assemble(res)
		}
		return out
	}

	// Flights carry the snapshot, and a flight is read only while it is
	// registered: every flight this call leads finishes before it
	// returns, so sc's snapshot is free again by its next use.
	snapshot := s.bank.AppendVersions(sc.snapshot[:0])
	sc.snapshot = snapshot
	// lead is one distinct fingerprint this batch must compute, and
	// every batch index waiting on it.
	type lead struct {
		key  uint64
		f    *flight
		idxs []int
	}
	type waiter struct {
		idx int
		f   *flight
	}
	var leads []*lead
	byKey := make(map[uint64]*lead)
	var waits []waiter
	for i, key := range keys {
		if l := byKey[key]; l != nil {
			// In-batch duplicate: ride the leader's computation.
			l.idxs = append(l.idxs, i)
			s.cache.noteShared()
			continue
		}
		res, state, f := s.cache.begin(key, snapshot)
		switch state {
		case beginHit:
			out[i] = s.assemble(res)
		case beginShared:
			waits = append(waits, waiter{idx: i, f: f})
		default: // beginLeader
			l := &lead{key: key, f: f, idxs: []int{i}}
			byKey[key] = l
			leads = append(leads, l)
		}
	}

	if len(leads) > 0 {
		batch := make([]*fingerprint.Fingerprint, len(leads))
		for j, l := range leads {
			batch[j] = fp(l.idxs[0])
		}
		results := s.bank.IdentifyBatch(batch, workers)
		for j, l := range leads {
			s.cache.finish(l.key, l.f, results[j], s.depsFor(results[j], snapshot), true)
			resp := s.assemble(results[j])
			for _, i := range l.idxs {
				out[i] = resp
			}
		}
	}

	// Fingerprints being computed by concurrent callers (Identify or
	// another batch): wait for their verdicts.
	for _, w := range waits {
		<-w.f.done
		if w.f.ok {
			out[w.idx] = s.assemble(w.f.res)
		} else {
			out[w.idx] = s.verdict(keys[w.idx], fp(w.idx))
		}
	}
	return out
}
