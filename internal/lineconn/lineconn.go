// Package lineconn is the pipelined line-correlated transport shared by
// every client in the serving stack: the pooled gateway client
// (gateway.Pool/FleetPool) and the remote-shard client
// (iotssp.RemoteShard and the replicated iotssp.ShardGroup) both speak
// a JSON-lines protocol whose responses may arrive out of order, and
// each used to carry its own copy of the same subtle connection core.
// This package owns that core once.
//
// # The correlation contract
//
// A Conn writes request lines onto one persistent TCP connection and
// counts them: the first line written on a fresh connection is line 1,
// the next line 2, and so on. The peer echoes each request's line
// number in its response (the Message constraint's CorrelationLine),
// and a dedicated read pump routes every decoded response line to the
// waiter registered under that number — so many requests ride the
// connection at once and the match stays exact however the peer
// reorders verdicts, overload errors and cache hits, including two
// in-flight requests for the same logical key.
//
// # The generation guard
//
// The line counter resets on every redial. A response still buffered in
// a dead connection's read pump could therefore correlate — by line
// number alone — to a waiter registered on the replacement connection.
// Each connection incarnation carries a generation number; a pump that
// outlives its socket delivers nothing into a younger incarnation's
// waiter table (the delivery is counted as a dropped correlation and
// the stale pump exits).
//
// # Drop/fail semantics
//
// A transport failure — write error, read error, undecodable response
// line, local deadline — severs the connection and fails every pending
// waiter with the same error, so pipelined callers fail fast instead of
// waiting out their own deadlines, and the next round-trip redials
// lazily. Responses arriving with no registered waiter (after a local
// timeout took the waiter away, or lacking the line echo entirely) are
// dropped and counted, never misdelivered.
//
// # Handshake hook
//
// A client whose protocol opens with a negotiation (the shard
// protocol's hello) supplies the handshake line and a check for its
// reply: the hello is written as line 1 of every fresh connection and
// its correlated response must pass the check before the connection
// serves traffic, so a mode or version mismatch fails the dial cleanly
// instead of surfacing mid-pipeline.
//
// # Per-incarnation codec state and framed compression
//
// Wire protocol v4 makes connections stateful: both ends of one
// connection keep a fingerprint dictionary that must stay in lockstep,
// and the residual line stream may travel as compressed frames. The
// transport owns the lifecycle for both. Options.NewState builds a
// fresh codec-state value from each successful handshake reply — the
// connection incarnation IS the state's generation, so a severed
// connection can never encode against state the peer no longer holds —
// and encoder callbacks (RoundTripEnc/RoundTripBatchEnc) run against
// that state under the connection lock, atomically with the write that
// ships their output. Options.Framed inspects the same reply to decide
// whether everything after the handshake is framed flate
// (FrameWriter/FrameReader); the hello itself always travels
// uncompressed both ways. Handshake bytes, push bytes and
// dictionary hit/miss/reference-byte tallies are counted separately so
// steady-state bytes/verdict can be measured without the negotiation
// noise.
//
// Reconnects are lazy (the next round-trip redials) and the jittered
// exponential backoff between retry attempts comes from the shared
// internal/backoff source via Retry, so a fleet of clients backing off
// from one incident never retries in lockstep.
package lineconn

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
)

// Message is the decoded response-line type a Conn correlates: one JSON
// object per line, echoing the request's 1-based connection line number.
type Message interface {
	// CorrelationLine returns the echoed line number (0 means the
	// response is not tied to a request line and is dropped).
	CorrelationLine() uint64
}

// ErrClosed is returned by round-trips on a permanently closed Conn.
var ErrClosed = errors.New("lineconn: connection closed")

// Stats is a snapshot of a transport's canonical counters. Every client
// built on lineconn surfaces exactly this block (json-tagged for the
// experiments' metrics snapshot), so dials, reconnects, bursts and
// dropped correlations mean the same thing in PoolStats,
// RemoteShardStats and ShardGroupStats.
type Stats struct {
	// Dials counts connection establishments, first dials and redials
	// alike (each includes the handshake when one is configured).
	Dials uint64 `json:"dials"`
	// Reconnects counts the subset of Dials that replaced a previously
	// established connection.
	Reconnects uint64 `json:"reconnects"`
	// Bursts counts pipelined multi-request writes (RoundTripBatch
	// calls that reached the socket); BurstRequests the request lines
	// they carried.
	Bursts        uint64 `json:"bursts"`
	BurstRequests uint64 `json:"burst_requests"`
	// DroppedCorrelations counts response lines discarded instead of
	// delivered: stale-generation deliveries and responses with no
	// registered waiter.
	DroppedCorrelations uint64 `json:"dropped_correlations"`
	// BytesWritten and BytesRead count wire traffic through the
	// transport: request lines (handshakes included) out, response lines
	// in. They are what the experiments divide by verdict counts to
	// report bytes/verdict, so codec changes show up as a measured wire
	// cost, not a guess.
	BytesWritten uint64 `json:"bytes_written"`
	BytesRead    uint64 `json:"bytes_read"`
	// Pushes counts server-initiated lines (no line echo) handed to the
	// Push handler rather than dropped.
	Pushes uint64 `json:"pushes"`
	// HandshakeBytesWritten/HandshakeBytesRead are the subset of
	// BytesWritten/BytesRead spent on handshake lines and their replies;
	// PushBytesRead the subset of BytesRead spent on server-initiated
	// push lines. Steady-state accounting subtracts them so a
	// compression win is not diluted by negotiation traffic.
	HandshakeBytesWritten uint64 `json:"handshake_bytes_written,omitempty"`
	HandshakeBytesRead    uint64 `json:"handshake_bytes_read,omitempty"`
	PushBytesRead         uint64 `json:"push_bytes_read,omitempty"`
	// DictHits/DictMisses count fingerprints the v4 dictionary codec
	// sent as references-or-diffs versus in full; DictRefBytes the entry
	// bytes of the reference forms. Zero on pre-v4 connections.
	DictHits     uint64 `json:"dict_hits,omitempty"`
	DictMisses   uint64 `json:"dict_misses,omitempty"`
	DictRefBytes uint64 `json:"dict_ref_bytes,omitempty"`
}

// Counters accumulates transport counters. One Counters is typically
// shared by every Conn of a client (a pool's connections, a remote
// shard's pipelined links) so the client's stats describe its whole
// transport.
type Counters struct {
	dials, reconnects, bursts, burstReqs, dropped atomic.Uint64
	bytesWritten, bytesRead, pushes               atomic.Uint64
	handshakeWritten, handshakeRead, pushRead     atomic.Uint64
	dictHits, dictMisses, dictRefBytes            atomic.Uint64
}

// NewCounters creates an empty counter set.
func NewCounters() *Counters { return &Counters{} }

// AddDict folds one request's dictionary-codec tallies (a committed
// DictTxn's Stats) into the counters. Encoder callbacks call it after
// their transaction commits.
func (c *Counters) AddDict(hits, misses, refBytes uint64) {
	c.dictHits.Add(hits)
	c.dictMisses.Add(misses)
	c.dictRefBytes.Add(refBytes)
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() Stats {
	return Stats{
		Dials:                 c.dials.Load(),
		Reconnects:            c.reconnects.Load(),
		Bursts:                c.bursts.Load(),
		BurstRequests:         c.burstReqs.Load(),
		DroppedCorrelations:   c.dropped.Load(),
		BytesWritten:          c.bytesWritten.Load(),
		BytesRead:             c.bytesRead.Load(),
		Pushes:                c.pushes.Load(),
		HandshakeBytesWritten: c.handshakeWritten.Load(),
		HandshakeBytesRead:    c.handshakeRead.Load(),
		PushBytesRead:         c.pushRead.Load(),
		DictHits:              c.dictHits.Load(),
		DictMisses:            c.dictMisses.Load(),
		DictRefBytes:          c.dictRefBytes.Load(),
	}
}

// Retry is the jittered-exponential backoff policy every lineconn-based
// client sleeps on between retry attempts: Base doubled per attempt,
// capped at Max (0 means uncapped), each sleep jittered to 50–150% by
// the shared seeded source.
type Retry struct {
	Base, Max time.Duration
	Jitter    *backoff.Jitter
}

// Sleep blocks for attempt's backoff (attempt counts from 1) or until
// ctx is done, returning ctx's error in that case.
func (r Retry) Sleep(ctx context.Context, attempt int) error {
	d := r.Base << (attempt - 1)
	if d <= 0 || (r.Max > 0 && d > r.Max) {
		// Overflowed shifts land on the cap too (or back on Base when
		// uncapped).
		d = r.Max
		if d <= 0 {
			d = r.Base
		}
	}
	jittered := r.Jitter.Scale(d)
	if ctx.Done() == nil {
		time.Sleep(jittered)
		return nil
	}
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Options configures a Conn beyond its address.
type Options[M Message] struct {
	// Counters receives the connection's transport counters; pass one
	// shared set for every Conn of a client. nil allocates a private set.
	Counters *Counters
	// Hello, when non-empty, is the handshake line (including its
	// trailing newline) written as line 1 of every fresh connection.
	// CheckHello validates the handshake's correlated reply; an error
	// fails the dial and the connection never serves traffic.
	Hello      []byte
	CheckHello func(M) error
	// Push, when non-nil, receives server-initiated lines: responses
	// carrying no line echo (CorrelationLine 0), which correlate with no
	// round-trip. Without a handler such lines are dropped and counted.
	// The handler runs on the read pump — it must not block (a version
	// stamp fold and a counter bump, not a round-trip).
	Push func(M)
	// NewState, when non-nil, builds the connection incarnation's codec
	// state from each successful handshake reply (nil return = stateless
	// connection). Encoder callbacks receive the value; a reconnect
	// builds a fresh one, so state never outlives the connection the
	// peer mirrors it on. Requires Hello.
	NewState func(M) any
	// Framed, when non-nil, inspects the handshake reply and reports
	// whether everything after the handshake travels as compressed
	// frames (FrameWriter/FrameReader) instead of plain lines. Requires
	// Hello; the handshake itself is always plain.
	Framed func(M) bool
	// Inbound, when non-nil, transforms every post-handshake response
	// line on the read pump, in wire order, against the incarnation's
	// codec state — the hook for stateful response codecs whose
	// decode order must match the peer's encode order (v4 name
	// interning). An error severs the connection. It runs on the pump
	// goroutine: it must not block or call back into the Conn, and it
	// is the only reader of whatever state fields it touches (encoders
	// run under the connection lock on different fields). Requires
	// Hello.
	Inbound func(state any, msg M) (M, error)
}

// Encoder builds one request line (trailing newline included) against
// the connection incarnation's codec state — nil when the connection is
// stateless. Encoders run under the connection lock, atomically with
// the write that ships their output: they must be fast, must not call
// back into the Conn, and must not commit state mutations except for
// output they successfully return (an error return must leave the state
// untouched, since nothing will be written).
type Encoder func(state any) ([]byte, error)

// Sizes reports one round-trip's payload byte counts: the request line
// as encoded (pre-framing) and the correlated response line as decoded
// (post-deframing). On a plain connection these equal wire bytes; on a
// framed connection the wire cost is the compressed frames, counted in
// Stats.BytesWritten/BytesRead. Clients use Sizes to attribute payload
// bytes to traffic classes (state transfer versus steady-state
// classifies) independently of transport compression.
type Sizes struct {
	Wrote, Read int
}

// pumpStart is the handshake decision ensureConnLocked hands the read
// pump: whether the rest of the stream is framed, and the incarnation's
// codec state for the Inbound hook.
type pumpStart struct {
	framed bool
	state  any
}

// result is one completed round-trip.
type result[M Message] struct {
	msg M
	n   int
	err error
}

// Conn is one persistent pipelined connection with line-echo
// correlation. It dials lazily on the first round-trip, redials lazily
// after any failure, and is safe for concurrent use — many goroutines
// may have round-trips in flight at once.
type Conn[M Message] struct {
	addr       string
	counters   *Counters
	hello      []byte
	check      func(M) error
	push       func(M)
	newState   func(M) any
	framedHook func(M) bool
	inbound    func(state any, msg M) (M, error)

	mu   sync.Mutex
	conn net.Conn
	// dialing is non-nil while one goroutine dials and handshakes; it is
	// closed when that attempt resolves. Concurrent round-trips wait on
	// it instead of treating the half-handshaken conn as established —
	// a request written before the framing/state decision would go out
	// plain and unstated on a connection the peer is about to frame.
	dialing chan struct{}
	// gen counts connection incarnations (the generation guard: pumps
	// carry their generation and stale deliveries are discarded).
	gen uint64
	// lines counts request lines written on the current connection;
	// waiters holds the in-flight round-trip for each line.
	lines   uint64
	waiters map[uint64]chan result[M]
	closed  bool
	// state, framed and fw belong to the current incarnation: the codec
	// state NewState built from its handshake reply, whether its
	// post-handshake stream is framed, and the frame writer when so.
	state  any
	framed bool
	fw     *FrameWriter
}

// New creates a connection to addr (host:port). Nothing is dialed until
// the first round-trip.
func New[M Message](addr string, opts Options[M]) *Conn[M] {
	if opts.Counters == nil {
		opts.Counters = NewCounters()
	}
	return &Conn[M]{
		addr:       addr,
		counters:   opts.Counters,
		hello:      opts.Hello,
		check:      opts.CheckHello,
		push:       opts.Push,
		newState:   opts.NewState,
		framedHook: opts.Framed,
		inbound:    opts.Inbound,
		waiters:    make(map[uint64]chan result[M]),
	}
}

// Addr returns the peer address.
func (c *Conn[M]) Addr() string { return c.addr }

// deadlineFor folds the per-call timeout with ctx's deadline.
func deadlineFor(ctx context.Context, timeout time.Duration) time.Time {
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return deadline
}

// ensureConnLocked dials and (when configured) handshakes the
// connection if needed. Callers hold mu; the handshake reply is awaited
// with mu released (the read pump needs it to deliver), and the method
// returns with mu held either way.
func (c *Conn[M]) ensureConnLocked(ctx context.Context, deadline time.Time) error {
	for c.dialing != nil {
		ch := c.dialing
		c.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			c.mu.Lock()
			return ctx.Err()
		}
		c.mu.Lock()
		if c.closed {
			return ErrClosed
		}
	}
	if c.conn != nil {
		return nil
	}
	dialCh := make(chan struct{})
	c.dialing = dialCh
	defer func() {
		// Runs with mu held: every return path below holds the lock.
		c.dialing = nil
		close(dialCh)
	}()
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return fmt.Errorf("lineconn: dialing %s: %w", c.addr, err)
	}
	if conn.LocalAddr().String() == conn.RemoteAddr().String() {
		// TCP simultaneous-connect on loopback: dialing a just-freed
		// ephemeral port can self-connect, and the pump would then read
		// back our own request lines as responses. Treat it as a failed
		// dial.
		conn.Close()
		return fmt.Errorf("lineconn: dialing %s: self-connection", c.addr)
	}
	if c.gen > 0 {
		c.counters.reconnects.Add(1)
	}
	c.conn = conn
	c.gen++
	c.lines = 0
	c.state, c.framed, c.fw = nil, false, nil
	c.counters.dials.Add(1)
	gen := c.gen
	if len(c.hello) == 0 {
		go c.readPump(conn, gen, nil)
		return nil
	}

	// The handshake consumes line 1 of the fresh connection. The pump
	// reads the reply plain, then blocks on decide: whether the rest of
	// the stream is framed is known only after the reply is validated
	// here, and the pump must not read past the reply until then (a
	// framed peer may push frames right behind it).
	c.lines = 1
	helloCh := make(chan result[M], 1)
	c.waiters[1] = helloCh
	decide := make(chan pumpStart, 1)
	go c.readPump(conn, gen, decide)
	conn.SetWriteDeadline(deadline)
	if _, err := conn.Write(c.hello); err != nil {
		// The pump is still blocked reading the reply; closing the
		// socket in dropLocked unblocks it without a decision.
		c.dropLocked(conn, err)
		decide <- pumpStart{}
		return fmt.Errorf("lineconn: handshake with %s: %w", c.addr, err)
	}
	c.counters.bytesWritten.Add(uint64(len(c.hello)))
	c.counters.handshakeWritten.Add(uint64(len(c.hello)))

	// Wait for the handshake reply outside the lock.
	c.mu.Unlock()
	var res result[M]
	timer := time.NewTimer(time.Until(deadline))
	select {
	case res = <-helloCh:
	case <-ctx.Done():
		res = result[M]{err: ctx.Err()}
	case <-timer.C:
		res = result[M]{err: fmt.Errorf("lineconn: handshake with %s: deadline exceeded", c.addr)}
	}
	timer.Stop()
	c.mu.Lock()

	if res.err != nil {
		c.dropLocked(conn, res.err)
		decide <- pumpStart{}
		return res.err
	}
	if c.check != nil {
		if err := c.check(res.msg); err != nil {
			c.dropLocked(conn, err)
			decide <- pumpStart{}
			return err
		}
	}
	if c.conn != conn {
		// The connection died while the lock was released.
		decide <- pumpStart{}
		return fmt.Errorf("lineconn: %s: connection lost during handshake", c.addr)
	}
	if c.newState != nil {
		c.state = c.newState(res.msg)
	}
	if c.framedHook != nil && c.framedHook(res.msg) {
		c.framed = true
		c.fw = NewFrameWriter(conn)
	}
	decide <- pumpStart{framed: c.framed, state: c.state}
	return nil
}

// RoundTrip writes one request line (body must include its trailing
// newline) and waits for the correlated response, at most timeout (or
// ctx's earlier deadline). A missed deadline severs the connection —
// the peer or the link is wedged, and every pipelined request should
// fail fast rather than each waiting out its own timer.
func (c *Conn[M]) RoundTrip(ctx context.Context, body []byte, timeout time.Duration) (M, error) {
	msg, _, err := c.RoundTripEnc(ctx, func(any) ([]byte, error) { return body, nil }, timeout)
	return msg, err
}

// RoundTripEnc is RoundTrip with the request line produced by an
// Encoder against the connection's codec state (see Encoder for the
// contract), reporting the payload Sizes alongside the response. An
// encoder error aborts the call before anything is written.
func (c *Conn[M]) RoundTripEnc(ctx context.Context, enc Encoder, timeout time.Duration) (M, Sizes, error) {
	var zero M
	deadline := deadlineFor(ctx, timeout)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return zero, Sizes{}, ErrClosed
	}
	if err := c.ensureConnLocked(ctx, deadline); err != nil {
		c.mu.Unlock()
		return zero, Sizes{}, err
	}
	conn := c.conn
	body, err := enc(c.state)
	if err != nil {
		c.mu.Unlock()
		return zero, Sizes{}, err
	}
	ch := make(chan result[M], 1)
	c.lines++
	c.waiters[c.lines] = ch
	conn.SetWriteDeadline(deadline)
	if err := c.writeLocked(conn, body); err != nil {
		werr := fmt.Errorf("lineconn: writing to %s: %w", c.addr, err)
		c.dropLocked(conn, werr)
		c.mu.Unlock()
		return zero, Sizes{Wrote: len(body)}, werr
	}
	c.mu.Unlock()

	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.msg, Sizes{Wrote: len(body), Read: res.n}, res.err
	case <-ctx.Done():
		c.fail(conn, ctx.Err())
		return zero, Sizes{Wrote: len(body)}, ctx.Err()
	case <-timer.C:
		err := fmt.Errorf("lineconn: %s: deadline exceeded", c.addr)
		c.fail(conn, err)
		return zero, Sizes{Wrote: len(body)}, err
	}
}

// RoundTripBatch writes a burst of request lines in one pipelined write
// and waits for all their correlated responses. msgs[j]/errs[j]
// describe bodies[j]; a transport failure mid-burst fails the affected
// entries (the caller decides whether to retry them individually).
func (c *Conn[M]) RoundTripBatch(ctx context.Context, bodies [][]byte, timeout time.Duration) ([]M, []error) {
	encs := make([]Encoder, len(bodies))
	for j := range bodies {
		body := bodies[j]
		encs[j] = func(any) ([]byte, error) { return body, nil }
	}
	return c.RoundTripBatchEnc(ctx, encs, timeout)
}

// RoundTripBatchEnc is RoundTripBatch with each request line produced
// by an Encoder against the connection's codec state, in burst order —
// on a stateful connection the peer decodes the lines in exactly the
// order they were encoded. An encoder error fails only its own entry
// (no line is written for it); the rest of the burst proceeds.
func (c *Conn[M]) RoundTripBatchEnc(ctx context.Context, encs []Encoder, timeout time.Duration) ([]M, []error) {
	msgs := make([]M, len(encs))
	errs := make([]error, len(encs))
	deadline := deadlineFor(ctx, timeout)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		for j := range errs {
			errs[j] = ErrClosed
		}
		return msgs, errs
	}
	if err := c.ensureConnLocked(ctx, deadline); err != nil {
		c.mu.Unlock()
		for j := range errs {
			errs[j] = err
		}
		return msgs, errs
	}
	conn := c.conn
	chans := make([]chan result[M], len(encs))
	var burst []byte
	registered := 0
	for j, enc := range encs {
		body, err := enc(c.state)
		if err != nil {
			errs[j] = err
			continue
		}
		chans[j] = make(chan result[M], 1)
		c.lines++
		c.waiters[c.lines] = chans[j]
		burst = append(burst, body...)
		registered++
	}
	if registered > 0 {
		c.counters.bursts.Add(1)
		c.counters.burstReqs.Add(uint64(registered))
		conn.SetWriteDeadline(deadline)
		if err := c.writeLocked(conn, burst); err != nil {
			// dropLocked fails every registered waiter, ours included; the
			// wait loop below collects those failures positionally.
			c.dropLocked(conn, fmt.Errorf("lineconn: writing burst to %s: %w", c.addr, err))
		}
	}
	c.mu.Unlock()

	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	severed := false
	for j, ch := range chans {
		if ch == nil {
			continue // encoder failure; errs[j] already set
		}
		select {
		case res := <-ch:
			msgs[j], errs[j] = res.msg, res.err
		case <-ctx.Done():
			if !severed {
				severed = true
				c.fail(conn, ctx.Err())
			}
			res := <-ch // fail delivered an error to every waiter
			msgs[j], errs[j] = res.msg, res.err
		case <-timer.C:
			if !severed {
				severed = true
				c.fail(conn, fmt.Errorf("lineconn: %s: burst deadline exceeded", c.addr))
			}
			res := <-ch
			msgs[j], errs[j] = res.msg, res.err
		}
	}
	return msgs, errs
}

// writeLocked ships one already-encoded payload onto conn: directly on
// a plain connection, or as one compressed frame when the incarnation
// negotiated framing. Wire bytes (frame overhead included, compression
// applied) land in the counters on success either way. Callers hold mu
// with conn current.
func (c *Conn[M]) writeLocked(conn net.Conn, body []byte) error {
	if !c.framed {
		if _, err := conn.Write(body); err != nil {
			return err
		}
		c.counters.bytesWritten.Add(uint64(len(body)))
		return nil
	}
	if _, err := c.fw.Write(body); err != nil {
		return err
	}
	wire, err := c.fw.Flush()
	if err != nil {
		return err
	}
	c.counters.bytesWritten.Add(uint64(wire))
	return nil
}

// readPump decodes response lines and hands each to its waiter until
// the connection breaks or a younger incarnation takes over (buffered
// lines can outlive the socket close; they must not resolve the new
// connection's waiters). On a handshaking connection, decide carries
// the framing decision: the pump reads exactly one plain line (the
// handshake reply), then waits for ensureConnLocked to validate it and
// announce whether the rest of the stream is framed before reading on.
func (c *Conn[M]) readPump(conn net.Conn, gen uint64, decide chan pumpStart) {
	br := bufio.NewReader(conn)
	var fr *FrameReader
	var state any
	first := decide != nil
	for {
		var line []byte
		var err error
		if fr != nil {
			var wire int
			line, wire, err = fr.Next()
			if err == nil {
				c.counters.bytesRead.Add(uint64(wire))
			}
		} else {
			line, err = br.ReadBytes('\n')
			if err == nil {
				c.counters.bytesRead.Add(uint64(len(line)))
			}
		}
		if err != nil {
			c.fail(conn, fmt.Errorf("lineconn: reading from %s: %w", c.addr, err))
			return
		}
		if first {
			c.counters.handshakeRead.Add(uint64(len(line)))
		}
		var msg M
		if err := json.Unmarshal(line, &msg); err != nil {
			c.fail(conn, fmt.Errorf("lineconn: decoding response from %s: %w", c.addr, err))
			return
		}
		if !first && c.inbound != nil {
			var err error
			if msg, err = c.inbound(state, msg); err != nil {
				c.fail(conn, fmt.Errorf("lineconn: decoding response from %s: %w", c.addr, err))
				return
			}
		}
		if !c.deliver(msg, gen, len(line)) {
			return
		}
		if first {
			first = false
			start := <-decide
			state = start.state
			if start.framed {
				fr = NewFrameReader(br)
			}
		}
	}
}

// deliver routes a response to the waiter for its echoed line number,
// reporting whether the pump's connection is still current. Lines with
// no echo at all are server-initiated pushes, handed to the Push
// handler when one is configured. Stale generations and responses
// without a waiter (after a local timeout, or an uncorrelated line with
// no Push handler) are dropped and counted.
func (c *Conn[M]) deliver(msg M, gen uint64, n int) bool {
	c.mu.Lock()
	if c.gen != gen {
		c.mu.Unlock()
		c.counters.dropped.Add(1)
		return false
	}
	if msg.CorrelationLine() == 0 && c.push != nil {
		c.mu.Unlock()
		c.counters.pushes.Add(1)
		c.counters.pushRead.Add(uint64(n))
		c.push(msg)
		return true
	}
	ch := c.waiters[msg.CorrelationLine()]
	if ch == nil {
		c.mu.Unlock()
		c.counters.dropped.Add(1)
		return true
	}
	delete(c.waiters, msg.CorrelationLine())
	c.mu.Unlock()
	ch <- result[M]{msg: msg, n: n}
	return true
}

// fail severs conn and fails every outstanding round-trip, so the next
// call redials.
func (c *Conn[M]) fail(conn net.Conn, err error) {
	c.mu.Lock()
	c.dropLocked(conn, err)
	c.mu.Unlock()
}

// dropLocked severs conn (if still current) and fails its waiters.
// Callers hold mu.
func (c *Conn[M]) dropLocked(conn net.Conn, err error) {
	if c.conn != conn {
		return
	}
	conn.Close()
	c.conn = nil
	c.state, c.framed, c.fw = nil, false, nil
	waiters := c.waiters
	c.waiters = make(map[uint64]chan result[M])
	for _, ch := range waiters {
		ch <- result[M]{err: err}
	}
}

// Close permanently severs the connection and fails its outstanding
// round-trips; further round-trips return ErrClosed.
func (c *Conn[M]) Close() {
	c.mu.Lock()
	c.closed = true
	if c.conn != nil {
		c.dropLocked(c.conn, ErrClosed)
	}
	c.mu.Unlock()
}
