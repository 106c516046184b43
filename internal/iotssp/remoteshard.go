package iotssp

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/lineconn"
	"repro/internal/stats"
)

// RemoteShardConfig tunes a RemoteShard client. The zero value selects
// defaults sized for an intra-fleet link.
type RemoteShardConfig struct {
	// Conns is the number of persistent pipelined connections to the
	// shard server. 0 selects 2.
	Conns int
	// Timeout bounds one classify/discriminate/meta round-trip. 0
	// selects 10s.
	Timeout time.Duration
	// EnrollTimeout bounds one enrolment round-trip — training a forest
	// takes seconds, not microseconds. 0 selects 2m.
	EnrollTimeout time.Duration
	// MaxRetries is how many times a request is retried after transport
	// failures or retryable errors, with jittered exponential backoff. A
	// shard is load-bearing state, not a stateless replica — crossing a
	// shard restart matters more than failing fast — so the default is a
	// deep 20 (with the backoff cap that rides out multi-second
	// restarts). A ShardGroup member overrides this down: the group
	// fails over to a healthy replica instead of riding the outage.
	MaxRetries int
	// RetryBackoff is the base backoff before the first retry; doubled
	// (and jittered to 50–150%) each further retry up to MaxBackoff.
	// 0 selects 10ms.
	RetryBackoff time.Duration
	// MaxBackoff caps the doubling. 0 selects 500ms.
	MaxBackoff time.Duration
	// Seed seeds the jitter generator (0 selects 1).
	Seed int64
	// Wire selects the wire compression: WireOff (the default) keeps
	// connections stateless, WireDict negotiates a per-connection
	// fingerprint dictionary of DefaultDictSize entries. A peer whose
	// hello grants no dictionary to a WireDict client is refused.
	Wire WireMode
}

func (c RemoteShardConfig) withDefaults() RemoteShardConfig {
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.EnrollTimeout <= 0 {
		c.EnrollTimeout = 2 * time.Minute
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 20
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 500 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// RemoteShardStats is a snapshot of a RemoteShard's counters.
type RemoteShardStats struct {
	// Requests counts shard operations issued; Retries counts extra
	// attempts after transport failures or retryable errors.
	Requests uint64 `json:"requests"`
	Retries  uint64 `json:"retries"`
	// Failures counts operations that exhausted their retries.
	Failures uint64 `json:"failures"`
	// Version is the last shard enrolment version observed on the wire.
	Version uint64 `json:"version"`
	// DeltasReceived counts server-pushed OpDelta version bumps folded
	// into the version cache — remote state changes this client learned
	// of without a round-trip.
	DeltasReceived uint64 `json:"deltas_received"`
	// StateBytes counts the payload bytes of state-transfer and control
	// operations (enroll, snapshot, restore, meta) in both directions.
	// Steady-state classify cost is the transport's byte counters minus
	// this, the handshake bytes and the push bytes — the carve-out that
	// keeps bytes-per-verdict honest.
	StateBytes uint64 `json:"state_bytes,omitempty"`
	// Transport is the pipelined connections' shared lineconn counter
	// block (dials — each including a hello handshake — reconnects and
	// dropped correlations).
	Transport lineconn.Stats `json:"transport"`
}

// Snapshot converts the counters into the uniform stats currency.
func (s RemoteShardStats) Snapshot() stats.Snapshot {
	return stats.New("remote_shard", s)
}

// RemoteShard is the client side of the shard wire protocol: it
// implements core.Shard against a bank shard hosted by a shard-serving
// Server in another process, so a core.ShardedBank can mix it freely
// with in-process shards. The transport is internal/lineconn — the same
// pipelined line-correlated connection the pooled gateway client rides
// — with the shard hello as the handshake hook: every fresh connection
// opens with a hello line whose reply must announce ModeShard at exactly
// ProtocolVersion before the connection serves traffic.
// Retries around reconnects and retryable errors back off with jitter
// from the shared internal/backoff source.
//
// Version is served from a local cache, refreshed from the version
// stamp every shard response carries — Versions() runs on the verdict
// cache's per-request path and must not cost a round-trip. A remote
// enrolment (this client's or anybody else's, observed on any reply)
// therefore bumps the cached version and invalidates exactly the
// dependent verdict-cache entries, the same contract an in-process
// shard's atomic version counter provides.
//
// Failure semantics: transient failures (including a shard-server
// restart) are absorbed by reconnect + retry. An operation that
// exhausts its retries fails open — ClassifyBatch reports empty accept
// sets and Discriminate no scores — so the logical bank degrades to
// "unknown device" on the lost partition instead of wedging; Enroll
// surfaces its error. RemoteShard is safe for concurrent use.
type RemoteShard struct {
	addr      string
	cfg       RemoteShardConfig
	conns     []*lineconn.Conn[shardResponse]
	retry     lineconn.Retry
	transport *lineconn.Counters
	next      atomic.Uint64 // round-robin connection cursor

	version atomic.Uint64
	// deltas counts server-pushed version bumps (the delta stream).
	deltas atomic.Uint64

	// typesMu guards the cached type list (refreshed by Types).
	typesMu sync.Mutex
	types   []string

	requests, retries, failures atomic.Uint64
	// stateBytes accumulates payload bytes of state-transfer operations
	// (see RemoteShardStats.StateBytes).
	stateBytes atomic.Uint64
	// unhealthy latches after an operation exhausts its retries and
	// clears on the next wire success (Healthy's signal).
	unhealthy atomic.Bool
}

// NewRemoteShard creates a client for the shard served at addr
// (host:port). No connection is made until the first operation.
func NewRemoteShard(addr string, cfg RemoteShardConfig) *RemoteShard {
	cfg = cfg.withDefaults()
	rs := &RemoteShard{
		addr:      addr,
		cfg:       cfg,
		transport: lineconn.NewCounters(),
	}
	rs.retry = lineconn.Retry{
		Base:   cfg.RetryBackoff,
		Max:    cfg.MaxBackoff,
		Jitter: backoff.NewJitter(cfg.Seed),
	}
	// The hello subscribes the connection to the shard's delta pushes
	// and carries the dictionary ask.
	opts := lineconn.Options[shardResponse]{
		Counters:   rs.transport,
		Hello:      helloLine(cfg.Wire),
		CheckHello: rs.checkHello,
		Push:       rs.handlePush,
	}
	if cfg.Wire == WireDict {
		// The per-incarnation codec state: a dictionary sized by the
		// server's grant. A reconnect rebuilds it empty — exactly when
		// the server's side resets too, which is what keeps the pair
		// coherent.
		opts.NewState = func(h shardResponse) any {
			return &connDict{dict: fingerprint.NewDict(h.Dict)}
		}
		// Responses on a dict connection intern the type names they
		// repeat (accepts, best, score keys); expansion must follow the
		// server's definition order, which is wire order — so it runs on
		// the read pump, against the incarnation's decode table.
		opts.Inbound = func(state any, resp shardResponse) (shardResponse, error) {
			cd, ok := state.(*connDict)
			if !ok {
				return resp, nil // lines trailing a refused handshake
			}
			err := expandShardResponse(&resp, &cd.respNames)
			return resp, err
		}
	}
	rs.conns = make([]*lineconn.Conn[shardResponse], cfg.Conns)
	for i := range rs.conns {
		rs.conns[i] = lineconn.New[shardResponse](addr, opts)
	}
	return rs
}

// connDict is a connection's per-incarnation dictionary state (the
// lineconn NewState payload): it lives exactly as long as one TCP
// connection, mirroring the server's side of the same dictionary.
type connDict struct {
	dict *fingerprint.Dict
	// reqNames is the request direction's name-intern index (candidate
	// names sent before travel as references), touched only by encoders
	// under the connection lock; respNames the response direction's
	// table, touched only by the read pump's Inbound hook.
	reqNames  map[string]int
	respNames nameDec
}

// checkHello validates a fresh connection's hello reply with the strict
// Hello.Match, and a valid reply's version stamp seeds the local
// version cache.
func (rs *RemoteShard) checkHello(resp shardResponse) error {
	if resp.Error != "" {
		return fmt.Errorf("iotssp: shard hello to %s: %s", rs.addr, resp.Error)
	}
	if err := resp.Hello.Match(rs.cfg.Wire); err != nil {
		return fmt.Errorf("iotssp: shard hello to %s: %w", rs.addr, err)
	}
	rs.observeVersion(resp.Version)
	return nil
}

// handlePush folds a server-initiated delta-stream line into the local
// caches: the version stamp moves the version cache (invalidating
// dependent verdict-cache entries above) without any round-trip having
// carried it. It runs on a connection's read pump and must not block.
func (rs *RemoteShard) handlePush(resp shardResponse) {
	if resp.Op != OpDelta {
		return
	}
	rs.deltas.Add(1)
	rs.observeVersion(resp.Version)
}

// DeltasReceived returns the count of server-pushed version bumps.
func (rs *RemoteShard) DeltasReceived() uint64 { return rs.deltas.Load() }

// Counters snapshots the client's typed counters.
func (rs *RemoteShard) Counters() RemoteShardStats {
	return RemoteShardStats{
		Requests:       rs.requests.Load(),
		Retries:        rs.retries.Load(),
		Failures:       rs.failures.Load(),
		Version:        rs.version.Load(),
		DeltasReceived: rs.deltas.Load(),
		StateBytes:     rs.stateBytes.Load(),
		Transport:      rs.transport.Snapshot(),
	}
}

// Stats implements the control plane's Component contract: the typed
// counters marshalled as raw JSON.
func (rs *RemoteShard) Stats() json.RawMessage {
	return rs.Counters().Snapshot().Data
}

// Healthy implements the Component contract: the client is healthy
// until an operation exhausts its retries, and recovers on the next
// successful round-trip.
func (rs *RemoteShard) Healthy() bool {
	return !rs.unhealthy.Load()
}

// Addr returns the shard server's address.
func (rs *RemoteShard) Addr() string { return rs.addr }

// observeVersion folds a version stamp from the wire into the cache.
// Versions only grow, so the maximum observed is the freshest.
func (rs *RemoteShard) observeVersion(v uint64) {
	for {
		cur := rs.version.Load()
		if v <= cur || rs.version.CompareAndSwap(cur, v) {
			return
		}
	}
}

// do runs one shard operation with reconnect + jittered retry, the
// request body marshalled once and replayed verbatim per attempt.
func (rs *RemoteShard) do(req shardRequest, timeout time.Duration) (shardResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		rs.requests.Add(1)
		return shardResponse{}, fmt.Errorf("iotssp: encoding shard request: %w", err)
	}
	body = append(body, '\n')
	return rs.doEnc(req.Op, func(any) ([]byte, error) { return body, nil }, timeout)
}

// stateOp reports whether op is state transfer or control rather than
// steady-state classification — its payload bytes land in StateBytes.
func stateOp(op string) bool {
	switch op {
	case OpEnroll, OpSnapshot, OpRestore, OpMeta:
		return true
	}
	return false
}

// doEnc runs one shard operation with reconnect + jittered retry,
// spreading attempts over the connection pool. The encoder builds the
// request body against each attempt's connection state — which is how
// dictionary-coded requests stay coherent with whichever connection
// (and dictionary incarnation) the attempt lands on.
func (rs *RemoteShard) doEnc(op string, enc lineconn.Encoder, timeout time.Duration) (shardResponse, error) {
	rs.requests.Add(1)
	var lastErr error
	for attempt := 0; attempt <= rs.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			rs.retries.Add(1)
			rs.retry.Sleep(context.Background(), attempt)
		}
		sc := rs.conns[rs.next.Add(1)%uint64(len(rs.conns))]
		resp, sizes, err := sc.RoundTripEnc(context.Background(), enc, timeout)
		if err == nil && stateOp(op) {
			rs.stateBytes.Add(uint64(sizes.Wrote + sizes.Read))
		}
		if err != nil {
			lastErr = err
			continue
		}
		rs.observeVersion(resp.Version)
		if resp.Error != "" {
			if resp.Retryable {
				lastErr = fmt.Errorf("iotssp: shard backpressure: %s", resp.Error)
				continue
			}
			// The shard answered; the request was just rejected.
			rs.unhealthy.Store(false)
			return resp, fmt.Errorf("iotssp: shard error: %s", resp.Error)
		}
		rs.unhealthy.Store(false)
		return resp, nil
	}
	rs.failures.Add(1)
	rs.unhealthy.Store(true)
	return shardResponse{}, fmt.Errorf("iotssp: shard %s unreachable: %w", rs.addr, lastErr)
}

// ClassifyBatch implements core.Shard: the batch ships as encoded F
// matrices in one pipelined request, and the reply carries each
// fingerprint's accepted types in shard enrolment order. The workers
// budget is the scatter's local concern and does not travel — the shard
// server fans the batch across its own cores. On exhausted retries the
// batch fails open to all-reject (see the type comment).
func (rs *RemoteShard) ClassifyBatch(fps []*fingerprint.Fingerprint, workers int) [][]string {
	_ = workers
	out := make([][]string, len(fps))
	if len(fps) == 0 {
		return out
	}
	for _, f := range fps {
		if f == nil {
			return out // nothing packable; fail open like a pack error
		}
	}
	resp, err := rs.doEnc(OpClassify, rs.classifyEncoder(fps), rs.cfg.Timeout)
	if err != nil || len(resp.Accepts) != len(fps) {
		return out
	}
	return resp.Accepts
}

// classifyEncoder builds the classify request encoder for one batch.
// The encoder adapts the batch to the connection the attempt lands
// on. With a negotiated dictionary the batch ships dictionary-coded:
// recurring fingerprints cost a 12-byte reference instead of their
// packed form, and the txn commits only after the body marshals, so
// a failed attempt never desyncs the pair. Without a dictionary the
// batch ships delta-packed: consecutive setup packets share most
// feature values, so per-column deltas are mostly zero and the batch
// shrinks by roughly a third. The delta body is built once and
// replayed across attempts; the dictionary body is rebuilt per attempt
// against that connection's own dictionary. A ShardGroup calls this
// per member, so a failover re-encodes the batch against the member
// (and dictionary incarnation) it actually lands on.
func (rs *RemoteShard) classifyEncoder(fps []*fingerprint.Fingerprint) lineconn.Encoder {
	var deltaBody []byte
	return func(state any) ([]byte, error) {
		if cd, ok := state.(*connDict); ok {
			txn := cd.dict.Begin()
			batch := make([]string, len(fps))
			for i, f := range fps {
				entry, err := txn.Pack(f)
				if err != nil {
					return nil, err
				}
				batch[i] = entry
			}
			body, err := json.Marshal(shardRequest{Op: OpClassify, Batch: batch, Enc: DictEncoding})
			if err != nil {
				return nil, err
			}
			txn.Commit()
			rs.transport.AddDict(txn.Stats())
			return append(body, '\n'), nil
		}
		if deltaBody == nil {
			batch := make([]string, len(fps))
			for i, f := range fps {
				packed, err := fingerprint.PackDelta(f)
				if err != nil {
					return nil, err
				}
				batch[i] = packed
			}
			body, err := json.Marshal(shardRequest{Op: OpClassify, Batch: batch, Enc: deltaEncoding})
			if err != nil {
				return nil, err
			}
			deltaBody = append(body, '\n')
		}
		return deltaBody, nil
	}
}

// Discriminate implements core.Shard. On exhausted retries it reports
// no scores, which concedes the discrimination to the other shards'
// candidates.
func (rs *RemoteShard) Discriminate(f *fingerprint.Fingerprint, candidates []string) (string, map[string]float64) {
	if f == nil {
		return "", nil
	}
	resp, err := rs.doEnc(OpDiscriminate, rs.discriminateEncoder(f, candidates), rs.cfg.Timeout)
	if err != nil {
		return "", nil
	}
	return resp.Best, resp.Scores
}

// discriminateEncoder builds the discriminate request encoder,
// adapting to the connection each attempt lands on the same way
// classifyEncoder does: dictionary-coded fingerprint plus interned
// candidate names on a dict connection, the plain packed form (built
// once, replayed) otherwise.
func (rs *RemoteShard) discriminateEncoder(f *fingerprint.Fingerprint, candidates []string) lineconn.Encoder {
	var plainBody []byte
	return func(state any) ([]byte, error) {
		if cd, ok := state.(*connDict); ok {
			txn := cd.dict.Begin()
			entry, err := txn.Pack(f)
			if err != nil {
				return nil, err
			}
			wire, defined := internCandidates(candidates, cd.reqNames)
			body, err := json.Marshal(shardRequest{Op: OpDiscriminate, Fingerprint: entry, Candidates: wire, Enc: DictEncoding})
			if err != nil {
				return nil, err
			}
			// Commit both codecs only now that the line will ship: the
			// dictionary transaction, and the candidate names this request
			// defined into the intern table.
			txn.Commit()
			if cd.reqNames == nil {
				cd.reqNames = make(map[string]int)
			}
			for _, name := range defined {
				cd.reqNames[name] = len(cd.reqNames)
			}
			rs.transport.AddDict(txn.Stats())
			return append(body, '\n'), nil
		}
		if plainBody == nil {
			packed, err := fingerprint.Pack(f)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(shardRequest{Op: OpDiscriminate, Fingerprint: packed, Candidates: candidates})
			if err != nil {
				return nil, err
			}
			plainBody = append(body, '\n')
		}
		return plainBody, nil
	}
}

// Enroll implements core.Shard: the training fingerprints ship packed,
// the shard server trains the classifier, and the reply's version stamp
// lands in the local cache — which is exactly what lets a verdict cache
// fronting the logical bank invalidate the entries that depended on
// this shard.
func (rs *RemoteShard) Enroll(name string, prints []*fingerprint.Fingerprint) error {
	packed := make([]string, len(prints))
	for i, f := range prints {
		p, err := fingerprint.Pack(f)
		if err != nil {
			return err
		}
		packed[i] = p
	}
	_, err := rs.do(shardRequest{Op: OpEnroll, Type: name, Prints: packed}, rs.cfg.EnrollTimeout)
	return err
}

// Remove implements core.Shard: the shard server retires the type's
// classifier (keeping its reference prints as a drain tombstone, the
// core.Bank.Remove semantics) and the reply's bumped version stamp
// lands in the local cache, invalidating the dependent verdicts.
func (rs *RemoteShard) Remove(name string) error {
	_, err := rs.do(shardRequest{Op: OpRemove, Type: name}, rs.cfg.Timeout)
	return err
}

// Snapshot implements core.Shard: it asks the shard server for its
// bank's serialized trained state (OpSnapshot). A failed transfer is
// the signal the control plane's member minting takes to fall back to
// history replay.
func (rs *RemoteShard) Snapshot() ([]byte, error) {
	resp, err := rs.do(shardRequest{Op: OpSnapshot}, rs.cfg.EnrollTimeout)
	if err != nil {
		return nil, err
	}
	return resp.Snapshot, nil
}

// Restore implements core.Shard: the snapshot ships to the shard server
// (OpRestore), which swaps its bank's state atomically.
// The enrolment timeout applies — a snapshot is the big transfer of the
// protocol, though still orders of magnitude cheaper than the training
// it replaces.
func (rs *RemoteShard) Restore(snapshot []byte) error {
	resp, err := rs.do(shardRequest{Op: OpRestore, Snapshot: snapshot}, rs.cfg.EnrollTimeout)
	if err != nil {
		return err
	}
	// A restore is the one operation that can rewind the shard's version;
	// the otherwise-monotonic cache must follow the authoritative reset.
	rs.version.Store(resp.Version)
	return nil
}

// Version implements core.Shard from the local cache of the last
// version stamp observed on the wire (every shard response carries
// one, and delta-stream pushes move it between round-trips). It never
// blocks on the network: verdict caches call it per request.
func (rs *RemoteShard) Version() uint64 { return rs.version.Load() }

// Types implements core.Shard: it asks the shard server for its type
// list (OpMeta), falling back to the last successfully fetched list
// when the shard is unreachable.
func (rs *RemoteShard) Types() []string {
	resp, err := rs.do(shardRequest{Op: OpMeta}, rs.cfg.Timeout)
	rs.typesMu.Lock()
	defer rs.typesMu.Unlock()
	if err == nil {
		rs.types = append([]string(nil), resp.Types...)
	}
	return append([]string(nil), rs.types...)
}

// Close severs every connection and fails outstanding requests.
func (rs *RemoteShard) Close() error {
	for _, sc := range rs.conns {
		sc.Close()
	}
	return nil
}

// RemoteShard implements core.Shard over the wire.
var _ core.Shard = (*RemoteShard)(nil)
