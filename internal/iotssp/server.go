package iotssp

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// ServerConfig tunes the multi-gateway serving loop. The zero value
// selects load-ready defaults.
type ServerConfig struct {
	// MaxConns bounds the number of live connections; connection
	// attempts beyond it are answered with a retryable error response
	// and closed. 0 selects 256.
	MaxConns int
	// BatchSize caps a dispatcher flush: a batch is whatever is queued
	// when the dispatcher is free, up to this many requests. 1 disables
	// micro-batching (every request is identified alone — the
	// per-request baseline). 0 selects 32.
	BatchSize int
	// QueueCapacity bounds the dispatcher's request queue, summed across
	// all connections. A request arriving with the queue full is
	// answered with a retryable "overloaded" error instead of growing an
	// unbounded backlog. 0 selects 1024.
	QueueCapacity int
	// Workers is the worker count handed to Bank.IdentifyBatch per
	// flush. 0 selects GOMAXPROCS.
	Workers int
	// WriteQueue bounds each connection's pending-response queue. A
	// client that stops reading until it fills is dropped (slow-consumer
	// protection). 0 selects 256.
	WriteQueue int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 1024
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.WriteQueue <= 0 {
		c.WriteQueue = 256
	}
	return c
}

// ServerStats is a snapshot of the server's load counters. The JSON
// field names feed the experiments' single metrics blob.
type ServerStats struct {
	// ConnsAccepted and ConnsRefused count connections admitted and
	// turned away at the MaxConns bound.
	ConnsAccepted uint64 `json:"conns_accepted"`
	ConnsRefused  uint64 `json:"conns_refused"`
	// Requests counts well-formed requests enqueued to the dispatcher.
	Requests uint64 `json:"requests"`
	// Malformed counts requests rejected at parse/decode time.
	Malformed uint64 `json:"malformed"`
	// Overloaded counts requests refused with a retryable error because
	// the dispatcher queue was full.
	Overloaded uint64 `json:"overloaded"`
	// SlowClientDrops counts connections closed because their response
	// queue filled.
	SlowClientDrops uint64 `json:"slow_client_drops"`
	// Batches and BatchedRequests describe the dispatcher's flushes;
	// MaxBatch is the largest single flush.
	Batches         uint64 `json:"batches"`
	BatchedRequests uint64 `json:"batched_requests"`
	MaxBatch        uint64 `json:"max_batch"`
	// Cache snapshots the service's verdict cache.
	Cache CacheStats `json:"cache"`
}

// add accumulates another snapshot into s (used by Fleet to keep
// cumulative per-replica stats across restarts). MaxBatch takes the
// max; everything else sums.
func (s ServerStats) add(o ServerStats) ServerStats {
	s.ConnsAccepted += o.ConnsAccepted
	s.ConnsRefused += o.ConnsRefused
	s.Requests += o.Requests
	s.Malformed += o.Malformed
	s.Overloaded += o.Overloaded
	s.SlowClientDrops += o.SlowClientDrops
	s.Batches += o.Batches
	s.BatchedRequests += o.BatchedRequests
	if o.MaxBatch > s.MaxBatch {
		s.MaxBatch = o.MaxBatch
	}
	// Cache counters come from the shared service cache: keep the newer
	// snapshot rather than summing a shared counter twice.
	s.Cache = o.Cache
	return s
}

// MeanBatch is the average flush size.
func (s ServerStats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchedRequests) / float64(s.Batches)
}

// Snapshot converts the counters into the uniform stats currency.
func (s ServerStats) Snapshot() stats.Snapshot {
	return stats.New("server", s)
}

// dispatchItem is one checked identify request waiting for the
// dispatcher: its cache key and its matrix, still encoded.
type dispatchItem struct {
	key    uint64
	matrix []byte
	line   uint64
	out    *connWriter
}

// Server serves the wire in one of two modes. In verdict mode
// (NewServer) it fronts a Service with identify frames: a
// bounded accept loop, one read and one write pump per connection, and
// a micro-batching dispatcher that aggregates requests across all
// connections into Bank.IdentifyBatch flushes; it owns a dispatcher
// goroutine until Close. In shard-serving mode (NewShardServer) it
// hosts one core.Bank shard of a distributed logical bank and answers
// the shard verbs (classify/discriminate/enroll/meta) instead — see
// shardserver.go.
type Server struct {
	svc   *Service
	shard *core.Bank // non-nil selects shard-serving mode
	cfg   ServerConfig

	queue chan dispatchItem
	// enrollSem bounds concurrent shard-mode enrolments (nil in verdict
	// mode).
	enrollSem chan struct{}

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // connection pumps
	dwg    sync.WaitGroup // dispatcher

	// subMu guards the shard-mode delta-stream subscribers: the write
	// pumps of connections whose hello asked for version pushes.
	subMu sync.Mutex
	subs  map[*connWriter]struct{}

	connsAccepted, connsRefused     atomic.Uint64
	refusing                        atomic.Int64 // refusals being answered
	requests, malformed, overloaded atomic.Uint64
	slowDrops                       atomic.Uint64
	batches, batchedReqs, maxBatch  atomic.Uint64
}

// NewServer wraps a service for network serving; the zero-value cfg
// selects the load-ready defaults. The returned server runs its
// dispatcher immediately; call Close to release it.
func NewServer(svc *Service, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		svc:   svc,
		cfg:   cfg,
		queue: make(chan dispatchItem, cfg.QueueCapacity),
		conns: make(map[net.Conn]struct{}),
	}
	s.dwg.Add(1)
	go s.dispatch()
	return s
}

// Counters snapshots the server's typed counters.
func (s *Server) Counters() ServerStats {
	st := ServerStats{
		ConnsAccepted:   s.connsAccepted.Load(),
		ConnsRefused:    s.connsRefused.Load(),
		Requests:        s.requests.Load(),
		Malformed:       s.malformed.Load(),
		Overloaded:      s.overloaded.Load(),
		SlowClientDrops: s.slowDrops.Load(),
		Batches:         s.batches.Load(),
		BatchedRequests: s.batchedReqs.Load(),
		MaxBatch:        s.maxBatch.Load(),
	}
	if s.svc != nil {
		st.Cache = s.svc.CacheStats()
	}
	return st
}

// Stats implements the control plane's Component contract: the typed
// counters marshalled as raw JSON.
func (s *Server) Stats() json.RawMessage {
	return s.Counters().Snapshot().Data
}

// Healthy implements the Component contract: a server is healthy until
// it is closed.
func (s *Server) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// Serve accepts connections on lis until Close is called. It blocks.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("iotssp: server closed")
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("iotssp: accept: %w", err)
		}
		s.ServeConn(conn)
	}
}

// ServeConn serves one pre-accepted connection, applying the same
// admission policy as Serve's accept loop: a closed server drops it, a
// server at MaxConns answers with a retryable refusal, and an admitted
// connection gets its read/write pumps. ServeConn returns immediately
// (the pumps run asynchronously); the result reports whether the
// connection was admitted. It exists for callers that own their accept
// loop — a Replica keeps accepting on its listener across server
// incarnations so a restarted backend keeps its address.
func (s *Server) ServeConn(conn net.Conn) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return false
	}
	if len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.connsRefused.Add(1)
		// Backpressure: tell the client to retry rather than holding a
		// connection slot hostage. The answer waits on the client, so it
		// runs off the accept loop; at most MaxConns refusals are
		// answered at once, and past that a refused connection is just
		// closed.
		if s.refusing.Add(1) > int64(s.cfg.MaxConns) {
			s.refusing.Add(-1)
			conn.Close()
			return false
		}
		go func() {
			defer s.refusing.Add(-1)
			s.refuse(conn)
		}()
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.connsAccepted.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
		s.handleConn(conn)
	}()
	return true
}

// refusePeek bounds how long a refusal waits for the client's first
// byte, which picks the wire the refusal is written in.
const refusePeek = 100 * time.Millisecond

// refuse answers a connection turned away at MaxConns with a retryable
// error for its line 1, in the wire of the client's first byte: a
// verdict frame to a client that opened with an identify frame (so
// gateway.Pool reads it as backpressure), a JSON line otherwise —
// including to a client that has not spoken within refusePeek. The
// refusal is followed by a half-close, and the client's unread bytes
// are drained before the socket closes, so the close cannot turn into
// a reset that discards the refusal. The whole exchange is bounded by
// one second.
func (s *Server) refuse(conn net.Conn) {
	defer conn.Close()
	msg := fmt.Sprintf("server at connection capacity (%d)", s.cfg.MaxConns)
	var first [1]byte
	conn.SetReadDeadline(time.Now().Add(refusePeek))
	_, err := io.ReadFull(conn, first[:])
	conn.SetDeadline(time.Now().Add(time.Second))
	var out []byte
	if err == nil && first[0] == frameIdentify {
		out = AppendVerdictFrame(nil, &Response{Line: 1, Error: msg, Retryable: true})
	} else {
		out, _ = json.Marshal(shardResponse{Line: 1, Error: msg, Retryable: true})
		out = append(out, '\n')
	}
	if _, err := conn.Write(out); err != nil {
		return
	}
	if hc, ok := conn.(interface{ CloseWrite() error }); ok && hc.CloseWrite() == nil {
		io.Copy(io.Discard, conn)
	}
}

// connWriter is a connection's write pump: responses are queued on ch
// and encoded by a dedicated goroutine, so the dispatcher never blocks
// on a client's socket.
type connWriter struct {
	conn net.Conn
	srv  *Server

	mu     sync.Mutex
	closed bool
	ch     chan reply
}

// reply is one queued response: a verdict frame, or — when line is set
// — a JSON line (shard replies, and a verdict server's answers to JSON
// requests). Verdicts travel by value, so queueing one allocates
// nothing.
type reply struct {
	verdict Response
	line    any
}

// send queues a verdict frame for the write pump.
func (w *connWriter) send(resp Response) bool { return w.queue(reply{verdict: resp}) }

// sendLine queues a JSON line for the write pump.
func (w *connWriter) sendLine(msg any) bool { return w.queue(reply{line: msg}) }

// queue hands a reply to the write pump. A full queue means the client
// stopped reading: the connection is dropped rather than letting its
// backlog grow without bound.
func (w *connWriter) queue(r reply) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	select {
	case w.ch <- r:
		return true
	default:
		w.closed = true
		close(w.ch)
		w.conn.Close()
		w.srv.slowDrops.Add(1)
		return false
	}
}

// shutdown stops the writer once no more sends can arrive from this
// connection's read pump; late dispatcher responses are discarded.
func (w *connWriter) shutdown() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
	w.mu.Unlock()
}

// pump encodes queued responses until the channel closes or the
// connection breaks.
func (w *connWriter) pump() {
	bw := bufio.NewWriter(w.conn)
	enc := json.NewEncoder(bw)
	fail := func() {
		w.conn.Close()
		for range w.ch { // drain so senders never block
		}
	}
	var frame []byte
	for r := range w.ch {
		var err error
		if r.line != nil {
			err = enc.Encode(r.line)
		} else {
			frame = AppendVerdictFrame(frame[:0], &r.verdict)
			_, err = bw.Write(frame)
		}
		if err != nil {
			fail()
			return
		}
		// Flush eagerly when the queue is empty so single requests are
		// answered immediately; coalesce writes under load.
		if len(w.ch) == 0 {
			if err := bw.Flush(); err != nil {
				fail()
				return
			}
		}
	}
	bw.Flush()
}

// handleConn is a connection's read pump. In verdict mode it checks
// identify frames without decoding them, answers malformed ones in
// place (with the offending message number, keeping the connection
// alive), and enqueues the rest to the dispatcher — or answers with a
// retryable error when the queue is full. JSON lines get JSON answers:
// a hello is introduced to, anything else refused (identify requests
// travel only as frames). A verdict connection holds no state: every
// message stands alone.
func (s *Server) handleConn(conn net.Conn) {
	w := &connWriter{conn: conn, srv: s, ch: make(chan reply, s.cfg.WriteQueue)}
	var pumpDone sync.WaitGroup
	pumpDone.Add(1)
	go func() {
		defer pumpDone.Done()
		w.pump()
	}()
	defer pumpDone.Wait()
	defer w.shutdown()

	mr := newMsgReader(conn)
	if s.shard != nil {
		s.handleShardConn(mr, w)
		return
	}

	var arena []byte
	var line uint64
	for {
		msg, frame, err := mr.next()
		line++
		if err != nil {
			if frame {
				// A frame header or body the stream cannot be read past:
				// answer, then sever.
				s.malformed.Add(1)
				w.send(Response{Line: line, Error: fmt.Sprintf("line %d: %v", line, err)})
			}
			return
		}
		if !frame {
			if !s.answerLine(w, line, msg) {
				return
			}
			continue
		}
		_, matrix, err := splitIdentify(msg)
		if err != nil {
			s.malformed.Add(1)
			if !w.send(Response{Line: line, Error: fmt.Sprintf("line %d: malformed identify frame: %v", line, err)}) {
				return
			}
			continue
		}
		item := dispatchItem{key: s.svc.keyBytes(matrix), matrix: carve(&arena, matrix), line: line, out: w}
		// Count before enqueueing: once queued, the reply can reach the
		// client before this goroutine runs again.
		s.requests.Add(1)
		select {
		case s.queue <- item:
		default:
			s.requests.Add(^uint64(0)) // refused, not enqueued
			s.overloaded.Add(1)
			if !w.send(Response{
				Line:      line,
				Error:     fmt.Sprintf("line %d: server overloaded: request queue full (capacity %d)", line, s.cfg.QueueCapacity),
				Retryable: true,
			}) {
				return
			}
		}
	}
}

// arenaChunk sizes the blocks carve cuts request matrices from.
const arenaChunk = 32 * 1024

// carve copies b into the connection's arena — a block many requests'
// matrices share, released once the last of them is done — so
// admitting a request allocates nothing of its own.
func carve(arena *[]byte, b []byte) []byte {
	if cap(*arena)-len(*arena) < len(b) {
		*arena = make([]byte, 0, max(arenaChunk, len(b)))
	}
	start := len(*arena)
	*arena = append(*arena, b...)
	return (*arena)[start:len(*arena):len(*arena)]
}

// answerLine answers a JSON line on a verdict connection: the hello
// gets the mode and protocol version and grants none of the asks it
// may carry; shard verbs and JSON identify requests are refused
// non-retryably (the client dialed the wrong kind of server, or speaks
// a wire this build no longer serves: retrying cannot help). It reports
// whether the connection is still writable.
func (s *Server) answerLine(w *connWriter, line uint64, msg []byte) bool {
	var req struct {
		Op string `json:"op"`
	}
	if err := json.Unmarshal(msg, &req); err != nil {
		s.malformed.Add(1)
		return w.sendLine(shardResponse{Line: line, Error: fmt.Sprintf("line %d: malformed request: %v", line, err)})
	}
	switch req.Op {
	case OpHello:
		return w.sendLine(shardResponse{Op: OpHello, Line: line, Hello: Hello{Mode: ModeVerdict, V: ProtocolVersion}})
	case "":
		s.malformed.Add(1)
		return w.sendLine(shardResponse{Line: line, Error: fmt.Sprintf(
			"line %d: identify requests travel as binary frames; JSON identify lines are not served", line)})
	default:
		return w.sendLine(shardResponse{Line: line, Error: fmt.Sprintf(
			"line %d: this server speaks the identify protocol (%s mode); shard op %q is not served here", line, ModeVerdict, req.Op)})
	}
}

// dispatch is the micro-batching loop: it blocks for the first pending
// request, takes whatever else is already queued without waiting (up to
// BatchSize), and flushes through the service. A lone request leaves at
// once; under load, requests that queue while a batch is in the bank
// form the next one, so batches grow with load and no timer is needed.
// The batch, the keys/matrices columns it is split into and the
// service's verdict scratch are reused across flushes, so a flush whose
// every request hits the cache allocates nothing; batch and matrices
// are cleared after each, so no request or connection is retained past
// its flush.
func (s *Server) dispatch() {
	defer s.dwg.Done()
	batch := make([]dispatchItem, 0, s.cfg.BatchSize)
	keys := make([]uint64, 0, s.cfg.BatchSize)
	matrices := make([][]byte, 0, s.cfg.BatchSize)
	var scratch flushScratch
	for {
		first, ok := <-s.queue
		if !ok {
			return
		}
		batch = append(batch[:0], first)
		open := true
	drain:
		for len(batch) < s.cfg.BatchSize {
			select {
			case item, more := <-s.queue:
				if !more {
					open = false
					break drain
				}
				batch = append(batch, item)
			default:
				break drain
			}
		}
		keys, matrices = keys[:0], matrices[:0]
		for _, item := range batch {
			keys = append(keys, item.key)
			matrices = append(matrices, item.matrix)
		}
		s.processBatch(&scratch, batch, keys, matrices)
		clear(batch)
		clear(matrices)
		if !open {
			return
		}
	}
}

// processBatch identifies one flush worth of requests — keys and
// matrices are the batch's columns, sc the dispatcher's verdict
// scratch — and routes each verdict back to its connection.
func (s *Server) processBatch(sc *flushScratch, batch []dispatchItem, keys []uint64, matrices [][]byte) {
	s.batches.Add(1)
	s.batchedReqs.Add(uint64(len(batch)))
	for {
		cur := s.maxBatch.Load()
		if uint64(len(batch)) <= cur || s.maxBatch.CompareAndSwap(cur, uint64(len(batch))) {
			break
		}
	}
	resps := s.svc.identifyMatrices(sc, keys, matrices, s.cfg.Workers)
	for i, item := range batch {
		resps[i].Line = item.line
		item.out.send(resps[i])
	}
}

// Close stops the server: it stops accepting, severs live connections,
// waits for the pumps, and shuts the dispatcher down after the queue
// drains. Safe to call once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	// All read pumps have exited: nothing sends on queue anymore.
	close(s.queue)
	s.dwg.Wait()
	return err
}
