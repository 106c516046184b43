// Package lineconn is the pipelined line-correlated transport shared by
// every client in the serving stack: the pooled gateway client
// (gateway.Pool/FleetPool, speaking binary verdict frames) and the
// remote-shard client (iotssp.RemoteShard, speaking JSON lines) both
// run protocols whose responses may arrive out of order, and each used
// to carry its own copy of the same subtle connection core. This
// package owns that core once. Responses are JSON lines unless Options.Decoder supplies a
// reader for another wire.
//
// # The correlation contract
//
// A Conn writes requests onto one persistent TCP connection and counts
// them as lines, whatever their encoding: the first request written on
// a fresh connection is line 1, the next line 2, and so on. The peer
// echoes each request's line number in its response (the Message
// constraint's CorrelationLine), and a dedicated read pump routes every
// decoded response to the waiter registered under that number — so
// many requests ride the connection at once and the match stays exact
// however the peer reorders verdicts, overload errors and cache hits,
// including two in-flight requests for the same logical key.
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
// # Group commit
//
// Round-trips do not write the socket themselves. Each registers its
// waiter and appends its request line to the incarnation's out buffer
// under the connection lock, so line order stays wire order (the order
// a stateful encoder assumed when it ran). The round-trip that finds no
// write in progress becomes the flusher: it drops the lock and, when
// other round-trips are in flight, yields once, so callers that are
// already runnable — the replies one server read just woke — queue
// their lines behind it. It then ships the whole buffer in one write,
// and keeps swapping and writing until it finds the buffer empty. The
// other round-trips just wait for their replies. The yield is what
// makes the commit a group: without it the woken callers run one by
// one and each finds the previous one's write already done. A request
// that travels alone has nobody to wait for and skips the yield, which
// would hand the processor to unrelated work and wake an idle one: a
// cost in latency that buys nothing.
//
// A failed write severs the connection like any other transport
// failure, failing every queued waiter; a sever also discards the
// queued bytes and clears the flusher's claim, so no byte of a dead
// incarnation's queue can reach the next connection. A flusher whose
// connection was severed while it was in the kernel touches nothing
// when it returns: the next incarnation's buffer and flusher are not
// its own.
//
// A successful round-trip allocates nothing of its own: its reply
// channel and its timer come from a per-Conn pool and go back to it
// stopped and drained.
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
// # Per-incarnation codec state
//
// A dictionary wire makes connections stateful: both ends of one
// connection keep a fingerprint dictionary that must stay in lockstep.
// The transport owns its lifecycle. Options.NewState builds a fresh
// codec-state value from each successful handshake reply — the
// connection incarnation IS the state's generation, so a severed
// connection can never encode against state the peer no longer holds —
// and RoundTripEnc's encoder callback runs against that state under the
// connection lock, atomically with queueing its output (so encode order
// is wire order); Options.Inbound decodes responses against the same state on the read
// pump. Every line travels plain, handshake included. Handshake bytes,
// push bytes and dictionary hit/miss/reference-byte tallies are counted
// separately so steady-state bytes/verdict can be measured without the
// negotiation noise.
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
	"runtime"
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
// experiments' metrics snapshot), so dials, reconnects, writes, bursts
// and dropped correlations mean the same thing in PoolStats and
// RemoteShardStats.
type Stats struct {
	// Dials counts connection establishments, first dials and redials
	// alike (each includes the handshake when one is configured).
	Dials uint64 `json:"dials"`
	// Reconnects counts the subset of Dials that replaced a previously
	// established connection.
	Reconnects uint64 `json:"reconnects"`
	// Writes counts socket writes that carried request lines
	// (handshakes excluded). Group commit ships together every line
	// queued while the previous write was in the kernel, so requests
	// divided by Writes is how many lines a write carried.
	Writes uint64 `json:"writes"`
	// Bursts counts RoundTripBatch calls that queued request lines;
	// BurstRequests the lines they queued. A burst's lines are queued
	// together, so one write carries them all, possibly beside other
	// round-trips' lines.
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
	// dictionary win is not diluted by negotiation traffic.
	HandshakeBytesWritten uint64 `json:"handshake_bytes_written,omitempty"`
	HandshakeBytesRead    uint64 `json:"handshake_bytes_read,omitempty"`
	PushBytesRead         uint64 `json:"push_bytes_read,omitempty"`
	// DictHits/DictMisses count fingerprints the dictionary codec
	// sent as references-or-diffs versus in full; DictRefBytes the entry
	// bytes of the reference forms. Zero on connections without one.
	DictHits     uint64 `json:"dict_hits,omitempty"`
	DictMisses   uint64 `json:"dict_misses,omitempty"`
	DictRefBytes uint64 `json:"dict_ref_bytes,omitempty"`
}

// Counters accumulates transport counters. One Counters is typically
// shared by every Conn of a client (a pool's connections, a remote
// shard's pipelined links) so the client's stats describe its whole
// transport.
type Counters struct {
	dials, reconnects, writes, bursts, burstReqs atomic.Uint64
	dropped                                      atomic.Uint64
	bytesWritten, bytesRead, pushes              atomic.Uint64
	handshakeWritten, handshakeRead, pushRead    atomic.Uint64
	dictHits, dictMisses, dictRefBytes           atomic.Uint64
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
		Writes:                c.writes.Load(),
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
	// Inbound, when non-nil, transforms every post-handshake response
	// line on the read pump, in wire order, against the incarnation's
	// codec state — the hook for stateful response codecs whose
	// decode order must match the peer's encode order (shard name
	// interning). An error severs the connection. It runs on the pump
	// goroutine: it must not block or call back into the Conn, and it
	// is the only reader of whatever state fields it touches (encoders
	// run under the connection lock on different fields). Requires
	// Hello.
	Inbound func(state any, msg M) (M, error)
	// Decoder, when non-nil, replaces the JSON-line response decode: it
	// is called once per connection incarnation and returns the reader
	// that incarnation's pump decodes every response with — the
	// message and the bytes it consumed. A binary wire plugs in here
	// (gateway.Pool's verdict frames); a per-incarnation reader may keep
	// scratch buffers and lookup tables without locks, since only its
	// pump calls it.
	Decoder func() func(*bufio.Reader) (M, int, error)
}

// Encoder builds one request line (trailing newline included) against
// the connection incarnation's codec state — nil when the connection is
// stateless. Encoders run under the connection lock, atomically with
// queueing their output for the write that ships it: they must be
// fast, must not call back into the Conn, and must not commit state
// mutations except for output they successfully return (an error return
// must leave the state untouched, since nothing will be written).
type Encoder func(state any) ([]byte, error)

// Sizes reports one round-trip's byte counts: the request line written
// and the correlated response line read. Clients use Sizes to attribute
// bytes to traffic classes (state transfer versus steady-state
// classifies).
type Sizes struct {
	Wrote, Read int
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
	addr     string
	counters *Counters
	hello    []byte
	check    func(M) error
	push     func(M)
	newState func(M) any
	inbound  func(state any, msg M) (M, error)
	decoder  func() func(*bufio.Reader) (M, int, error)

	mu   sync.Mutex
	conn net.Conn
	// dialing is non-nil while one goroutine dials and handshakes; it is
	// closed when that attempt resolves. Concurrent round-trips wait on
	// it instead of treating the half-handshaken conn as established —
	// a request encoded before the handshake reply builds the codec
	// state would go out unstated on a connection the peer holds state
	// for.
	dialing chan struct{}
	// gen counts connection incarnations (the generation guard: pumps
	// carry their generation and stale deliveries are discarded).
	gen uint64
	// lines counts request lines written on the current connection;
	// waiters holds the in-flight round-trip for each line.
	lines   uint64
	waiters map[uint64]chan result[M]
	closed  bool
	// state is the current incarnation's codec state, built by NewState
	// from its handshake reply.
	state any
	// out holds the request lines queued on the current incarnation and
	// not yet handed to a write; writing is set while a flusher owns the
	// socket's write side. spare is the buffer the last write emptied,
	// swapped in for out by the next one. dropLocked resets out and
	// writing with the incarnation.
	out, spare []byte
	writing    bool

	// free recycles waiters (reply channel and timer) across
	// round-trips.
	free sync.Pool
}

// maxSpare caps the write buffer a Conn keeps between writes, so one
// huge request (a bank snapshot) does not pin its size for the
// connection's life.
const maxSpare = 1 << 20

// waiter is one request line's reply slot: the channel its response
// (or its failure) arrives on, exactly once per registration, and the
// timer bounding the wait.
type waiter[M Message] struct {
	ch    chan result[M]
	timer *time.Timer
}

// errDeadline marks a round-trip whose own deadline expired.
var errDeadline = errors.New("deadline exceeded")

// await waits for w's reply until deadline or until ctx is done. The
// timer is stopped and drained on every return but the deadline one
// (which consumed its tick), so a recycled waiter starts clean.
// Stopping an asynchronous timer channel (go 1.22 semantics) can race
// its send: a tick that lands after the drain is caught here instead —
// one that arrives before the deadline re-arms the timer rather than
// failing the round-trip.
func (w *waiter[M]) await(ctx context.Context, deadline time.Time) (result[M], error) {
	if w.timer == nil {
		w.timer = time.NewTimer(time.Until(deadline))
	} else {
		w.disarm()
		w.timer.Reset(time.Until(deadline))
	}
	for {
		select {
		case res := <-w.ch:
			w.disarm()
			return res, nil
		case <-ctx.Done():
			w.disarm()
			return result[M]{}, ctx.Err()
		case <-w.timer.C:
			if d := time.Until(deadline); d > 0 {
				w.timer.Reset(d) // a stale tick from the timer's last use
				continue
			}
			select {
			case res := <-w.ch: // a reply that is already here wins
				return res, nil
			default:
				return result[M]{}, errDeadline
			}
		}
	}
}

// disarm stops w's timer and drains a tick it already sent.
func (w *waiter[M]) disarm() {
	if !w.timer.Stop() {
		select {
		case <-w.timer.C:
		default:
		}
	}
}

// getWaiter returns a recycled waiter, or a new one.
func (c *Conn[M]) getWaiter() *waiter[M] {
	if w, ok := c.free.Get().(*waiter[M]); ok {
		return w
	}
	return &waiter[M]{ch: make(chan result[M], 1)}
}

// New creates a connection to addr (host:port). Nothing is dialed until
// the first round-trip.
func New[M Message](addr string, opts Options[M]) *Conn[M] {
	if opts.Counters == nil {
		opts.Counters = NewCounters()
	}
	return &Conn[M]{
		addr:     addr,
		counters: opts.Counters,
		hello:    opts.Hello,
		check:    opts.CheckHello,
		push:     opts.Push,
		newState: opts.NewState,
		inbound:  opts.Inbound,
		decoder:  opts.Decoder,
		waiters:  make(map[uint64]chan result[M]),
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
	c.state = nil
	c.counters.dials.Add(1)
	gen := c.gen
	if len(c.hello) == 0 {
		go c.readPump(conn, gen, nil)
		return nil
	}

	// The handshake consumes line 1 of the fresh connection. The pump
	// reads the reply, then blocks on decide for the incarnation's codec
	// state: it is built only after the reply is validated here, and the
	// Inbound hook must decode every later line against it (a peer may
	// push lines right behind the reply).
	c.lines = 1
	helloCh := make(chan result[M], 1)
	c.waiters[1] = helloCh
	decide := make(chan any, 1)
	go c.readPump(conn, gen, decide)
	conn.SetWriteDeadline(deadline)
	if _, err := conn.Write(c.hello); err != nil {
		// The pump is still blocked reading the reply; closing the
		// socket in dropLocked unblocks it without a decision.
		c.dropLocked(conn, err)
		decide <- nil
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
		decide <- nil
		return res.err
	}
	if c.check != nil {
		if err := c.check(res.msg); err != nil {
			c.dropLocked(conn, err)
			decide <- nil
			return err
		}
	}
	if c.conn != conn {
		// The connection died while the lock was released.
		decide <- nil
		return fmt.Errorf("lineconn: %s: connection lost during handshake", c.addr)
	}
	if c.newState != nil {
		c.state = c.newState(res.msg)
	}
	decide <- c.state
	return nil
}

// RoundTrip sends one request line (body must include its trailing
// newline) and waits for the correlated response, at most timeout (or
// ctx's earlier deadline). A missed deadline severs the connection —
// the peer or the link is wedged, and every pipelined request should
// fail fast rather than each waiting out its own timer. body is copied
// before RoundTrip returns.
func (c *Conn[M]) RoundTrip(ctx context.Context, body []byte, timeout time.Duration) (M, error) {
	msg, _, err := c.roundTrip(ctx, nil, body, timeout)
	return msg, err
}

// RoundTripEnc is RoundTrip with the request line produced by an
// Encoder against the connection's codec state (see Encoder for the
// contract), reporting the payload Sizes alongside the response. An
// encoder error aborts the call before anything is queued.
func (c *Conn[M]) RoundTripEnc(ctx context.Context, enc Encoder, timeout time.Duration) (M, Sizes, error) {
	return c.roundTrip(ctx, enc, nil, timeout)
}

// roundTrip is RoundTrip when enc is nil, RoundTripEnc otherwise.
func (c *Conn[M]) roundTrip(ctx context.Context, enc Encoder, body []byte, timeout time.Duration) (M, Sizes, error) {
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
	if enc != nil {
		var err error
		if body, err = enc(c.state); err != nil {
			c.mu.Unlock()
			return zero, Sizes{}, err
		}
	}
	w := c.getWaiter()
	c.lines++
	c.waiters[c.lines] = w.ch
	c.out = append(c.out, body...)
	c.commitLocked(conn, deadline, 1)

	res, err := w.await(ctx, deadline)
	if err != nil {
		if err == errDeadline {
			err = fmt.Errorf("lineconn: %s: deadline exceeded", c.addr)
		}
		c.fail(conn, err)
		<-w.ch // the sever failed the waiter, if its reply had not landed
	} else {
		err = res.err
	}
	c.free.Put(w)
	return res.msg, Sizes{Wrote: len(body), Read: res.n}, err
}

// RoundTripBatch queues a burst of request lines together and waits
// for all their correlated responses. msgs[j]/errs[j] describe
// bodies[j]; a transport failure mid-burst fails the affected entries
// (the caller decides whether to retry them individually).
func (c *Conn[M]) RoundTripBatch(ctx context.Context, bodies [][]byte, timeout time.Duration) ([]M, []error) {
	msgs := make([]M, len(bodies))
	errs := make([]error, len(bodies))
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
	ws := make([]*waiter[M], len(bodies))
	for j, body := range bodies {
		ws[j] = c.getWaiter()
		c.lines++
		c.waiters[c.lines] = ws[j].ch
		c.out = append(c.out, body...)
	}
	if len(bodies) == 0 {
		c.mu.Unlock()
		return msgs, errs
	}
	c.counters.bursts.Add(1)
	c.counters.burstReqs.Add(uint64(len(bodies)))
	c.commitLocked(conn, deadline, len(bodies))

	severed := false
	for j, w := range ws {
		var res result[M]
		if severed {
			res = <-w.ch // the sever failed every waiter
		} else if r, err := w.await(ctx, deadline); err == nil {
			res = r
		} else {
			severed = true
			if err == errDeadline {
				err = fmt.Errorf("lineconn: %s: burst deadline exceeded", c.addr)
			}
			c.fail(conn, err)
			res = <-w.ch
		}
		msgs[j], errs[j] = res.msg, res.err
		c.free.Put(w)
	}
	return msgs, errs
}

// commitLocked is the group commit (see the package doc). The caller
// holds mu, has just queued its own lines (own of them) on conn's out
// buffer, and leaves with mu released: either another round-trip is
// already writing and will ship the lines, or this one becomes the
// flusher and writes until the buffer is empty. Write errors sever the
// connection, which fails every queued waiter, the caller's included.
func (c *Conn[M]) commitLocked(conn net.Conn, deadline time.Time, own int) {
	if c.writing {
		c.mu.Unlock()
		return
	}
	c.writing = true
	others := len(c.waiters) > own
	c.mu.Unlock()
	if others {
		// Replies to the other round-trips in flight wake callers that
		// are about to queue: let them, so one write carries them all.
		runtime.Gosched()
	}
	c.mu.Lock()
	for c.conn == conn && len(c.out) > 0 {
		buf := c.out
		c.out, c.spare = c.spare[:0], nil
		c.mu.Unlock()
		conn.SetWriteDeadline(deadline)
		_, err := conn.Write(buf)
		c.mu.Lock()
		if err == nil {
			c.counters.writes.Add(1)
			c.counters.bytesWritten.Add(uint64(len(buf)))
		}
		if c.conn != conn {
			break // severed meanwhile: out and writing are the next incarnation's
		}
		if err != nil {
			c.dropLocked(conn, fmt.Errorf("lineconn: writing to %s: %w", c.addr, err))
			break
		}
		if cap(buf) <= maxSpare {
			c.spare = buf[:0]
		}
	}
	if c.conn == conn {
		c.writing = false
	}
	c.mu.Unlock()
}

// readPump decodes response lines and hands each to its waiter until
// the connection breaks or a younger incarnation takes over (buffered
// lines can outlive the socket close; they must not resolve the new
// connection's waiters). On a handshaking connection, decide carries
// the incarnation's codec state: the pump reads exactly one line (the
// handshake reply), then waits for ensureConnLocked to validate it and
// hand over the state the Inbound hook decodes later lines against.
func (c *Conn[M]) readPump(conn net.Conn, gen uint64, decide chan any) {
	br := bufio.NewReader(conn)
	read := readJSONLine[M]
	if c.decoder != nil {
		read = c.decoder()
	}
	var state any
	first := decide != nil
	for {
		msg, n, err := read(br)
		c.counters.bytesRead.Add(uint64(n))
		if first {
			c.counters.handshakeRead.Add(uint64(n))
		}
		if err != nil {
			c.fail(conn, fmt.Errorf("lineconn: reading from %s: %w", c.addr, err))
			return
		}
		if !first && c.inbound != nil {
			var err error
			if msg, err = c.inbound(state, msg); err != nil {
				c.fail(conn, fmt.Errorf("lineconn: decoding response from %s: %w", c.addr, err))
				return
			}
		}
		if !c.deliver(msg, gen, n) {
			return
		}
		if first {
			first = false
			state = <-decide
		}
	}
}

// readJSONLine is the default response decode: one JSON object per
// '\n'-terminated line.
func readJSONLine[M Message](br *bufio.Reader) (M, int, error) {
	var msg M
	line, err := br.ReadBytes('\n')
	if err != nil {
		return msg, len(line), err
	}
	if err := json.Unmarshal(line, &msg); err != nil {
		return msg, len(line), fmt.Errorf("decoding response: %w", err)
	}
	return msg, len(line), nil
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
	c.state = nil
	c.out = c.out[:0]
	c.writing = false
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
