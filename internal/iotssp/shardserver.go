package iotssp

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"

	"repro/internal/core"
	"repro/internal/fingerprint"
)

// Server modes, as announced in the OpHello negotiation.
const (
	// ModeVerdict is the identify-protocol front end (a Service behind
	// the micro-batching dispatcher).
	ModeVerdict = "verdict"
	// ModeShard is the shard-serving mode: the server hosts one
	// core.Bank shard of a distributed logical bank.
	ModeShard = "shard"
)

// shardRequest is one line of the shard wire protocol: an op plus the
// fields that op consumes. F matrices always travel in a compact codec
// (base64 zigzag varints, delta-packed or dictionary-coded) — the shard
// protocol is a high-volume inter-node path and never pays the readable
// JSON form.
type shardRequest struct {
	// Op is the verb: OpHello, OpMeta, OpClassify, OpDiscriminate,
	// OpEnroll, OpRemove, OpSnapshot or OpRestore.
	Op string `json:"op"`
	// Dict is the OpHello dictionary ask: Dict > 0 requests a
	// per-connection fingerprint dictionary of that capacity.
	Dict int `json:"dict,omitempty"`
	// Batch is the encoded F matrix of every fingerprint to classify
	// (OpClassify), batch order preserved in the reply.
	Batch []string `json:"batch,omitempty"`
	// Enc names the encoding: deltaEncoding or DictEncoding for a
	// classify Batch; empty (packed) or DictEncoding for a discriminate
	// Fingerprint.
	Enc string `json:"enc,omitempty"`
	// Fingerprint is one packed F matrix (OpDiscriminate).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Candidates are the device-types to discriminate among
	// (OpDiscriminate).
	Candidates []string `json:"candidates,omitempty"`
	// Type and Prints are the device-type and its packed training
	// fingerprints (OpEnroll). OpRemove sends Type alone.
	Type   string   `json:"type,omitempty"`
	Prints []string `json:"prints,omitempty"`
	// Snapshot is the serialized bank state to load (OpRestore; JSON
	// carries it base64-encoded).
	Snapshot []byte `json:"snapshot,omitempty"`
}

// shardResponse is the shard protocol's reply line. Every reply echoes
// the request's 1-based connection line number (clients pipeline and
// correlate by line, exactly as in the identify protocol) and carries
// the shard's current enrolment version, so a remote-shard client
// observes version bumps — its own enrolments and everybody else's —
// without polling.
type shardResponse struct {
	Op   string `json:"op,omitempty"`
	Line uint64 `json:"line,omitempty"`
	// Hello answers OpHello (mode, ProtocolVersion, dictionary grant).
	Hello
	// Version is the shard's enrolment version after handling the
	// request.
	Version uint64 `json:"version,omitempty"`
	// Types lists the shard's device-types (OpMeta).
	Types []string `json:"types,omitempty"`
	// Accepts carries OpClassify results: accepts[i] lists the types
	// whose classifier accepted batch entry i, in shard enrolment order.
	Accepts [][]string `json:"accepts,omitempty"`
	// Best and Scores carry OpDiscriminate results.
	Best   string             `json:"best,omitempty"`
	Scores map[string]float64 `json:"scores,omitempty"`
	// Snapshot carries OpSnapshot's serialized bank state (base64 on the
	// wire).
	Snapshot []byte `json:"snapshot,omitempty"`
	// Error/Retryable follow the verdict wire's error contract:
	// malformed shard requests are never retryable, backpressure and
	// mode mismatches a failover can fix are.
	Error     string `json:"error,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
}

// CorrelationLine implements lineconn.Message: shard clients pipeline
// and correlate replies by the echoed line number.
func (r shardResponse) CorrelationLine() uint64 { return r.Line }

// NewShardServer wraps one in-process classifier-bank shard for network
// serving: the returned server speaks the shard verbs (hello, meta,
// classify, discriminate, enroll, remove, snapshot, restore) and pushes
// OpDelta version bumps to every connection that said hello, so a
// core.ShardedBank in another process can address this bank through an
// iotssp.RemoteShard. The admission spine is shared with verdict mode —
// bounded accept loop, MaxConns refusals, per-connection read/write
// pumps, slow-client drops — but there is no micro-batching dispatcher:
// shard clients already batch (a whole scatter flush arrives as one
// OpClassify), so requests are answered straight off the read pump.
// Identify frames are answered with a clean retryable error naming
// the mode, so a gateway pointed at a shard endpoint backs off and
// fails over instead of choking on a malformed-line reply.
func NewShardServer(bank *core.Bank, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		shard: bank,
		cfg:   cfg,
		queue: make(chan dispatchItem, cfg.QueueCapacity),
		conns: make(map[net.Conn]struct{}),
		subs:  make(map[*connWriter]struct{}),
		// Enrolments train forests off the read pumps; bound how many may
		// be queued or training at once so a misbehaving client cannot
		// pile up goroutines each pinning a decoded training set.
		enrollSem: make(chan struct{}, maxConcurrentEnrolls),
	}
	// No dispatcher: shard verbs are served inline per connection.
	return s
}

// maxConcurrentEnrolls bounds in-flight enrolments per shard server.
// Training serializes on the bank's write lock anyway; the bound only
// caps the waiting room before overload answers take over.
const maxConcurrentEnrolls = 4

// ShardBank returns the hosted shard in shard-serving mode (nil in
// verdict mode).
func (s *Server) ShardBank() *core.Bank { return s.shard }

// handleShardConn is the shard-mode read pump: it reads JSON lines,
// answers malformed ones in place, and serves each shard verb against
// the hosted bank. Enrolments train a forest — seconds, not
// microseconds — so they run on their own goroutine and answer out of
// order through the write pump; classify/discriminate stay inline, and
// the pipelined line echo keeps correlation exact either way. The
// connection's dictionary state lives on this stack and dies with the
// connection. An identify frame — a gateway pointed at a shard
// endpoint — is refused retryably in a verdict frame naming the mode,
// so the gateway backs off and fails over instead of waiting out a
// deadline.
func (s *Server) handleShardConn(mr *msgReader, w *connWriter) {
	defer s.unsubscribe(w)
	cw := &connWire{}
	var line uint64
	for {
		msg, frame, err := mr.next()
		if err != nil {
			return
		}
		line++
		if frame {
			s.malformed.Add(1)
			if !w.send(Response{
				Line:      line,
				Error:     fmt.Sprintf("line %d: this server hosts a classifier-bank shard (%s mode, protocol v%d); identify requests are not served here", line, ModeShard, ProtocolVersion),
				Retryable: true,
			}) {
				return
			}
			continue
		}
		var req shardRequest
		if err := json.Unmarshal(msg, &req); err != nil || req.Op == "" {
			if err == nil {
				err = errors.New("no op")
			}
			s.malformed.Add(1)
			if !w.sendLine(shardResponse{Line: line, Error: fmt.Sprintf("line %d: malformed shard request: %v", line, err)}) {
				return
			}
			continue
		}
		if req.Op == OpEnroll {
			s.requests.Add(1)
			select {
			case s.enrollSem <- struct{}{}:
				req := req
				reqLine := line
				go func() {
					defer func() { <-s.enrollSem }()
					w.sendLine(s.serveEnroll(req, reqLine))
				}()
			default:
				// The enrolment waiting room is full: answer with the same
				// retryable backpressure contract the verdict mode's queue
				// uses instead of growing an unbounded goroutine pile.
				s.overloaded.Add(1)
				if !w.sendLine(shardResponse{
					Line:      line,
					Error:     fmt.Sprintf("line %d: shard overloaded: %d enrolments already in flight", line, maxConcurrentEnrolls),
					Retryable: true,
					Version:   s.shard.Version(),
				}) {
					return
				}
			}
			continue
		}
		resp := s.serveShardOp(req, line, cw)
		if cw.respNames != nil {
			// Dict connections intern the type names responses repeat
			// (accepts, best, score keys). Rewriting here, on the read pump,
			// keeps definition order equal to wire order: every name-bearing
			// response comes from this goroutine (enrolment replies carry no
			// names), and the write pump preserves queue order.
			internShardResponse(&resp, cw.respNames)
			if resp.Op != OpHello {
				// The line echo correlates; dict connections drop the op echo
				// (pushes, which have no line, keep theirs).
				resp.Op = ""
			}
		}
		if !w.sendLine(resp) {
			return
		}
		if req.Op == OpHello {
			// Subscribe only once the reply is queued, so no push can
			// precede it.
			s.subscribe(w)
		}
		if cw.fatal {
			// A dictionary-coded request failed to decode: the peers'
			// dictionaries can no longer be trusted to agree. The error
			// reply is queued; sever so the reconnect resets both ends.
			return
		}
	}
}

// serveShardOp answers one inline shard verb. cw is the connection's
// dictionary state: hellos negotiate into it, dictionary-coded
// batches decode against it, and a failed dictionary decode marks it
// fatal so the read pump severs after the error reply.
func (s *Server) serveShardOp(req shardRequest, line uint64, cw *connWire) shardResponse {
	switch req.Op {
	case OpHello:
		// The read pump subscribes the connection after sending this reply.
		resp := shardResponse{Op: OpHello, Line: line, Hello: Hello{Mode: ModeShard, V: ProtocolVersion}, Version: s.shard.Version()}
		cw.negotiate(&resp.Hello, req.Dict)
		return resp
	case OpMeta:
		s.requests.Add(1)
		return shardResponse{Op: OpMeta, Line: line, Types: s.shard.Types(), Version: s.shard.Version()}
	case OpClassify:
		s.requests.Add(1)
		if req.Enc != deltaEncoding && req.Enc != DictEncoding {
			s.malformed.Add(1)
			return shardResponse{Line: line, Error: fmt.Sprintf("line %d: unknown batch encoding %q", line, req.Enc)}
		}
		if req.Enc == DictEncoding && cw.dict == nil {
			s.malformed.Add(1)
			return shardResponse{Line: line, Error: fmt.Sprintf("line %d: batch encoding %q requires a hello-negotiated dictionary", line, req.Enc)}
		}
		var txn *fingerprint.DictTxn
		if req.Enc == DictEncoding {
			txn = cw.dict.Begin()
		}
		fps := make([]*fingerprint.Fingerprint, len(req.Batch))
		for i, packed := range req.Batch {
			var fp *fingerprint.Fingerprint
			var err error
			if txn != nil {
				fp, err = txn.Unpack(packed)
			} else {
				fp, err = fingerprint.UnpackDelta(packed)
			}
			if err != nil {
				s.malformed.Add(1)
				if txn != nil {
					cw.fatal = true // dictionaries out of sync: sever after replying
				}
				return shardResponse{Line: line, Error: fmt.Sprintf("line %d: classify batch entry %d: %v", line, i, err)}
			}
			fps[i] = fp
		}
		if txn != nil {
			txn.Commit()
		}
		accepts := s.shard.ClassifyBatch(fps, s.cfg.Workers)
		s.noteBatch(len(fps))
		return shardResponse{Op: OpClassify, Line: line, Accepts: accepts, Version: s.shard.Version()}
	case OpDiscriminate:
		s.requests.Add(1)
		if req.Enc != "" && req.Enc != DictEncoding {
			s.malformed.Add(1)
			return shardResponse{Line: line, Error: fmt.Sprintf("line %d: unknown fingerprint encoding %q", line, req.Enc)}
		}
		if req.Enc == DictEncoding && cw.dict == nil {
			s.malformed.Add(1)
			return shardResponse{Line: line, Error: fmt.Sprintf("line %d: fingerprint encoding %q requires a hello-negotiated dictionary", line, req.Enc)}
		}
		if cw.reqNames != nil {
			// Dict connections intern candidate names; an unknown reference
			// means the peers' tables diverged — same sever contract as the
			// fingerprint dictionary.
			if err := expandCandidates(req.Candidates, cw.reqNames); err != nil {
				s.malformed.Add(1)
				cw.fatal = true
				return shardResponse{Line: line, Error: fmt.Sprintf("line %d: %v", line, err)}
			}
		}
		var fp *fingerprint.Fingerprint
		var err error
		if req.Enc == DictEncoding {
			txn := cw.dict.Begin()
			fp, err = txn.Unpack(req.Fingerprint)
			if err == nil {
				txn.Commit()
			} else {
				cw.fatal = true
			}
		} else {
			fp, err = fingerprint.Unpack(req.Fingerprint)
		}
		if err != nil {
			s.malformed.Add(1)
			return shardResponse{Line: line, Error: fmt.Sprintf("line %d: discriminate fingerprint: %v", line, err)}
		}
		best, scores := s.shard.Discriminate(fp, req.Candidates)
		return shardResponse{Op: OpDiscriminate, Line: line, Best: best, Scores: scores, Version: s.shard.Version()}
	case OpRemove:
		s.requests.Add(1)
		if req.Type == "" {
			s.malformed.Add(1)
			return shardResponse{Line: line, Error: fmt.Sprintf("line %d: remove with empty type name", line)}
		}
		// Removal only drops the classifier and tombstones the prints —
		// microseconds, not a training run — so it answers inline.
		if err := s.shard.Remove(req.Type); err != nil {
			return shardResponse{Line: line, Error: fmt.Sprintf("line %d: %v", line, err), Version: s.shard.Version()}
		}
		s.notifyDelta([]string{req.Type})
		return shardResponse{Op: OpRemove, Line: line, Version: s.shard.Version()}
	case OpSnapshot:
		s.requests.Add(1)
		snap, err := s.shard.Snapshot()
		if err != nil {
			return shardResponse{Line: line, Error: fmt.Sprintf("line %d: %v", line, err), Version: s.shard.Version()}
		}
		return shardResponse{Op: OpSnapshot, Line: line, Snapshot: snap, Version: s.shard.Version()}
	case OpRestore:
		s.requests.Add(1)
		if len(req.Snapshot) == 0 {
			s.malformed.Add(1)
			return shardResponse{Line: line, Error: fmt.Sprintf("line %d: restore with empty snapshot", line)}
		}
		if err := s.shard.Restore(req.Snapshot); err != nil {
			return shardResponse{Line: line, Error: fmt.Sprintf("line %d: %v", line, err), Version: s.shard.Version()}
		}
		// A restore can move the whole type list at once; push the full
		// new list so subscribers' caches track it.
		s.notifyDelta(s.shard.Types())
		return shardResponse{Op: OpRestore, Line: line, Version: s.shard.Version()}
	}
	s.malformed.Add(1)
	return shardResponse{Line: line, Error: fmt.Sprintf("line %d: unknown shard op %q (protocol v%d)", line, req.Op, ProtocolVersion)}
}

// subscribe registers a connection's write pump for delta pushes (every
// connection that says hello).
func (s *Server) subscribe(w *connWriter) {
	s.subMu.Lock()
	s.subs[w] = struct{}{}
	s.subMu.Unlock()
}

// unsubscribe drops a departed connection's write pump.
func (s *Server) unsubscribe(w *connWriter) {
	s.subMu.Lock()
	delete(s.subs, w)
	s.subMu.Unlock()
}

// notifyDelta pushes a version bump to every subscribed connection:
// an uncorrelated OpDelta line (no line echo) carrying the shard's new
// version and the changed type names. Sends ride the write pumps'
// bounded queues — a slow subscriber is dropped by the ordinary
// slow-consumer protection, never waited on.
func (s *Server) notifyDelta(changed []string) {
	s.subMu.Lock()
	if len(s.subs) == 0 {
		s.subMu.Unlock()
		return
	}
	resp := shardResponse{Op: OpDelta, Version: s.shard.Version(), Types: changed}
	for w := range s.subs {
		w.sendLine(resp)
	}
	s.subMu.Unlock()
}

// serveEnroll trains the requested type on the hosted shard. It runs
// off the read pump (training takes seconds) and reports the shard
// version after the attempt either way, so the client's cached version
// tracks concurrent enrolments it lost the race to.
func (s *Server) serveEnroll(req shardRequest, line uint64) shardResponse {
	if req.Type == "" {
		s.malformed.Add(1)
		return shardResponse{Line: line, Error: fmt.Sprintf("line %d: enroll with empty type name", line)}
	}
	prints := make([]*fingerprint.Fingerprint, len(req.Prints))
	for i, packed := range req.Prints {
		fp, err := fingerprint.Unpack(packed)
		if err != nil {
			s.malformed.Add(1)
			return shardResponse{Line: line, Error: fmt.Sprintf("line %d: enroll print %d: %v", line, i, err)}
		}
		prints[i] = fp
	}
	if err := s.shard.Enroll(req.Type, prints); err != nil {
		return shardResponse{Line: line, Error: fmt.Sprintf("line %d: %v", line, err), Version: s.shard.Version()}
	}
	s.notifyDelta([]string{req.Type})
	return shardResponse{Op: OpEnroll, Line: line, Version: s.shard.Version()}
}

// noteBatch accounts one classify flush in the dispatcher counters, so
// shard servers report batch shapes the same way verdict servers do.
func (s *Server) noteBatch(n int) {
	s.batches.Add(1)
	s.batchedReqs.Add(uint64(n))
	for {
		cur := s.maxBatch.Load()
		if uint64(n) <= cur || s.maxBatch.CompareAndSwap(cur, uint64(n)) {
			break
		}
	}
}
