package lineconn

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backoff"
)

// testMsg is the response-line shape the tests speak: a line echo plus
// a payload tag.
type testMsg struct {
	Line uint64 `json:"line"`
	Tag  string `json:"tag,omitempty"`
	Mode string `json:"mode,omitempty"`
}

func (m testMsg) CorrelationLine() uint64 { return m.Line }

// scriptedServer runs a hand-scripted JSON-lines peer. handle is called
// per connection with the connection, its 1-based request line count
// and the raw line; returning false closes the connection.
func scriptedServer(t *testing.T, handle func(conn net.Conn, line int, raw []byte) bool) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				line := 0
				for {
					raw, err := br.ReadBytes('\n')
					if err != nil {
						return
					}
					line++
					if !handle(conn, line, raw) {
						return
					}
				}
			}(conn)
		}
	}()
	return lis.Addr().String()
}

// respond writes one testMsg line.
func respond(t *testing.T, conn net.Conn, msg testMsg) {
	t.Helper()
	b, err := json.Marshal(msg)
	if err != nil {
		t.Error(err)
		return
	}
	conn.Write(append(b, '\n'))
}

func reqLine(tag string) []byte {
	return []byte(fmt.Sprintf("{\"tag\":%q}\n", tag))
}

func TestRoundTripCorrelatesOutOfOrderResponses(t *testing.T) {
	// Park three pipelined requests and answer them in reverse order:
	// every waiter must receive the response for its own line.
	var mu sync.Mutex
	var parked []int
	addr := scriptedServer(t, func(conn net.Conn, line int, raw []byte) bool {
		mu.Lock()
		defer mu.Unlock()
		parked = append(parked, line)
		if len(parked) < 3 {
			return true
		}
		for i := len(parked) - 1; i >= 0; i-- {
			respond(t, conn, testMsg{Line: uint64(parked[i]), Tag: fmt.Sprintf("for-line-%d", parked[i])})
		}
		parked = nil
		return true
	})

	c := New[testMsg](addr, Options[testMsg]{})
	defer c.Close()

	var wg sync.WaitGroup
	got := make([]testMsg, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg, err := c.RoundTrip(context.Background(), reqLine(fmt.Sprintf("req-%d", i)), 5*time.Second)
			if err != nil {
				t.Errorf("round-trip %d: %v", i, err)
				return
			}
			got[i] = msg
		}(i)
	}
	wg.Wait()
	lines := map[uint64]bool{}
	for i, msg := range got {
		if want := fmt.Sprintf("for-line-%d", msg.Line); msg.Tag != want {
			t.Errorf("round-trip %d: line %d carried %q: responses crossed wires", i, msg.Line, msg.Tag)
		}
		lines[msg.Line] = true
	}
	if len(lines) != 3 {
		t.Errorf("line numbers not distinct across callers: %v", lines)
	}
}

// TestGenerationGuardDropsStaleDeliveries is the PR 4 review finding,
// tested directly against the transport: a read pump that outlives its
// severed connection must not resolve waiters registered on the
// replacement connection, even though the line numbers collide after
// the counter reset.
func TestGenerationGuardDropsStaleDeliveries(t *testing.T) {
	c := New[testMsg]("127.0.0.1:1", Options[testMsg]{})
	defer c.Close()

	// Hand-build the replacement connection's state: generation 2 with a
	// waiter registered under line 1 (the line counter reset on redial).
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	ch := make(chan result[testMsg], 1)
	c.mu.Lock()
	c.conn = client
	c.gen = 2
	c.lines = 1
	c.waiters[1] = ch
	c.mu.Unlock()

	// A response buffered from the severed generation-1 connection
	// carries the same line number. It must be dropped — and the stale
	// pump told to exit — not delivered to the new waiter.
	if c.deliver(testMsg{Line: 1, Tag: "stale"}, 1, 0) {
		t.Error("stale-generation delivery reported the pump as current")
	}
	select {
	case res := <-ch:
		t.Fatalf("stale response resolved the replacement's waiter: %+v", res)
	default:
	}
	if st := c.counters.Snapshot(); st.DroppedCorrelations != 1 {
		t.Errorf("dropped correlations = %d, want 1", st.DroppedCorrelations)
	}

	// The current generation's delivery still lands.
	if !c.deliver(testMsg{Line: 1, Tag: "fresh"}, 2, 0) {
		t.Error("current-generation delivery reported the pump as stale")
	}
	res := <-ch
	if res.msg.Tag != "fresh" {
		t.Errorf("waiter received %+v, want the fresh response", res.msg)
	}
}

func TestPeerCloseFailsAllPendingWaiters(t *testing.T) {
	// The server swallows three pipelined requests and closes the
	// connection: every waiter must fail fast with the read error, not
	// each wait out its own deadline.
	addr := scriptedServer(t, func(conn net.Conn, line int, raw []byte) bool {
		return line < 3
	})
	c := New[testMsg](addr, Options[testMsg]{})
	defer c.Close()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.RoundTrip(context.Background(), reqLine("x"), 30*time.Second)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("round-trip %d succeeded against a closing peer", i)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("pending waiters failed in %s, want fast failure on sever", elapsed)
	}

	// The next round-trip redials lazily.
	if st := c.counters.Snapshot(); st.Dials != 1 {
		t.Errorf("dials = %d, want 1 before the redial", st.Dials)
	}
	c.RoundTrip(context.Background(), reqLine("y"), 100*time.Millisecond)
	if st := c.counters.Snapshot(); st.Dials < 2 || st.Reconnects < 1 {
		t.Errorf("transport never redialed: %+v", st)
	}
}

func TestResponseWithoutWaiterIsDroppedNotMisdelivered(t *testing.T) {
	// The server answers line 99 (nobody is waiting) before the real
	// response: the orphan must be dropped and counted, and the real
	// waiter must still get its own line.
	addr := scriptedServer(t, func(conn net.Conn, line int, raw []byte) bool {
		respond(t, conn, testMsg{Line: 99, Tag: "orphan"})
		respond(t, conn, testMsg{Line: uint64(line), Tag: "mine"})
		return true
	})
	c := New[testMsg](addr, Options[testMsg]{})
	defer c.Close()

	msg, err := c.RoundTrip(context.Background(), reqLine("x"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tag != "mine" {
		t.Errorf("round-trip received %+v, want its own line", msg)
	}
	if st := c.counters.Snapshot(); st.DroppedCorrelations != 1 {
		t.Errorf("dropped correlations = %d, want 1", st.DroppedCorrelations)
	}
}

func TestDeadlineSeversWedgedConnection(t *testing.T) {
	addr := scriptedServer(t, func(conn net.Conn, line int, raw []byte) bool {
		return true // swallow requests, never answer
	})
	c := New[testMsg](addr, Options[testMsg]{})
	defer c.Close()

	if _, err := c.RoundTrip(context.Background(), reqLine("x"), 50*time.Millisecond); err == nil {
		t.Fatal("round-trip against a mute peer succeeded")
	} else if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("err = %v, want a deadline error", err)
	}
	// The sever must have dropped the connection: the next call redials.
	c.RoundTrip(context.Background(), reqLine("y"), 50*time.Millisecond)
	if st := c.counters.Snapshot(); st.Dials != 2 || st.Reconnects != 1 {
		t.Errorf("deadline did not sever the connection: %+v", st)
	}
}

func TestContextCancellationFailsRoundTrip(t *testing.T) {
	addr := scriptedServer(t, func(conn net.Conn, line int, raw []byte) bool {
		return true // never answer
	})
	c := New[testMsg](addr, Options[testMsg]{})
	defer c.Close()
	// Cancellation (not a deadline): only ctx.Done can end the wait.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := c.RoundTrip(ctx, reqLine("x"), 30*time.Second); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %s", elapsed)
	}
}

func TestRoundTripBatchSingleBurst(t *testing.T) {
	addr := scriptedServer(t, func(conn net.Conn, line int, raw []byte) bool {
		respond(t, conn, testMsg{Line: uint64(line), Tag: fmt.Sprintf("for-line-%d", line)})
		return true
	})
	c := New[testMsg](addr, Options[testMsg]{})
	defer c.Close()

	bodies := [][]byte{reqLine("a"), reqLine("b"), reqLine("c")}
	msgs, errs := c.RoundTripBatch(context.Background(), bodies, 5*time.Second)
	for j := range bodies {
		if errs[j] != nil {
			t.Fatalf("entry %d: %v", j, errs[j])
		}
		if want := fmt.Sprintf("for-line-%d", j+1); msgs[j].Tag != want {
			t.Errorf("entry %d got %+v, want tag %q", j, msgs[j], want)
		}
	}
	st := c.counters.Snapshot()
	if st.Bursts != 1 || st.BurstRequests != 3 {
		t.Errorf("burst counters = %+v, want 1 burst of 3", st)
	}
	// Uncontended, the burst's lines leave together.
	if st.Writes != 1 {
		t.Errorf("writes = %d, want the burst in exactly 1 write", st.Writes)
	}
}

func TestRoundTripBatchFailsAllOnSever(t *testing.T) {
	addr := scriptedServer(t, func(conn net.Conn, line int, raw []byte) bool {
		if line == 2 {
			respond(t, conn, testMsg{Line: uint64(line), Tag: "answered"})
		}
		return line < 3 // close after reading the whole burst
	})
	c := New[testMsg](addr, Options[testMsg]{})
	defer c.Close()

	msgs, errs := c.RoundTripBatch(context.Background(), [][]byte{reqLine("a"), reqLine("b"), reqLine("c")}, 5*time.Second)
	if errs[1] != nil || msgs[1].Tag != "answered" {
		t.Errorf("answered entry lost: msg=%+v err=%v", msgs[1], errs[1])
	}
	for _, j := range []int{0, 2} {
		if errs[j] == nil {
			t.Errorf("entry %d did not fail with the severed connection", j)
		}
	}
}

func TestHandshakeRunsAsLineOne(t *testing.T) {
	var mu sync.Mutex
	var firstLines []string
	addr := scriptedServer(t, func(conn net.Conn, line int, raw []byte) bool {
		if line == 1 {
			mu.Lock()
			firstLines = append(firstLines, strings.TrimSpace(string(raw)))
			mu.Unlock()
			respond(t, conn, testMsg{Line: 1, Mode: "shard"})
			return true
		}
		respond(t, conn, testMsg{Line: uint64(line), Tag: "ok"})
		return true
	})
	var checked []string
	c := New[testMsg](addr, Options[testMsg]{
		Hello: []byte("{\"hello\":true}\n"),
		CheckHello: func(m testMsg) error {
			checked = append(checked, m.Mode)
			return nil
		},
	})
	defer c.Close()

	msg, err := c.RoundTrip(context.Background(), reqLine("x"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Line != 2 {
		t.Errorf("first request landed on line %d, want 2 (the handshake owns line 1)", msg.Line)
	}
	if st := c.counters.Snapshot(); st.Writes != 1 {
		t.Errorf("writes = %d, want 1 (handshakes are not counted)", st.Writes)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(firstLines) != 1 || firstLines[0] != `{"hello":true}` {
		t.Errorf("handshake lines seen by the peer: %q", firstLines)
	}
	if len(checked) != 1 || checked[0] != "shard" {
		t.Errorf("CheckHello saw %v", checked)
	}
}

func TestHandshakeRejectionFailsDial(t *testing.T) {
	addr := scriptedServer(t, func(conn net.Conn, line int, raw []byte) bool {
		respond(t, conn, testMsg{Line: uint64(line), Mode: "verdict"})
		return true
	})
	c := New[testMsg](addr, Options[testMsg]{
		Hello: []byte("{\"hello\":true}\n"),
		CheckHello: func(m testMsg) error {
			if m.Mode != "shard" {
				return fmt.Errorf("peer mode %q, want shard", m.Mode)
			}
			return nil
		},
	})
	defer c.Close()

	if _, err := c.RoundTrip(context.Background(), reqLine("x"), 5*time.Second); err == nil {
		t.Fatal("round-trip succeeded past a rejected handshake")
	} else if !strings.Contains(err.Error(), "want shard") {
		t.Errorf("err = %v, want the CheckHello rejection", err)
	}
}

func TestClosedConnRefusesRoundTrips(t *testing.T) {
	c := New[testMsg]("127.0.0.1:1", Options[testMsg]{})
	if c.Addr() != "127.0.0.1:1" {
		t.Errorf("Addr = %q", c.Addr())
	}
	c.Close()
	if _, err := c.RoundTrip(context.Background(), reqLine("x"), time.Second); err != ErrClosed {
		t.Errorf("RoundTrip on closed conn = %v, want ErrClosed", err)
	}
	_, errs := c.RoundTripBatch(context.Background(), [][]byte{reqLine("x")}, time.Second)
	if errs[0] != ErrClosed {
		t.Errorf("RoundTripBatch on closed conn = %v, want ErrClosed", errs[0])
	}
}

func TestCloseFailsOutstandingWaiters(t *testing.T) {
	addr := scriptedServer(t, func(conn net.Conn, line int, raw []byte) bool {
		return true // never answer
	})
	c := New[testMsg](addr, Options[testMsg]{})
	done := make(chan error, 1)
	go func() {
		_, err := c.RoundTrip(context.Background(), reqLine("x"), 30*time.Second)
		done <- err
	}()
	// Wait until the request is in flight (the connection exists).
	for i := 0; ; i++ {
		if c.counters.Snapshot().Dials > 0 {
			break
		}
		if i > 1000 {
			t.Fatal("round-trip never dialed")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the waiter register
	c.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("outstanding waiter failed with %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the outstanding waiter hanging")
	}
}

func TestSharedCountersAcrossConns(t *testing.T) {
	addr := scriptedServer(t, func(conn net.Conn, line int, raw []byte) bool {
		respond(t, conn, testMsg{Line: uint64(line), Tag: "ok"})
		return true
	})
	counters := NewCounters()
	a := New[testMsg](addr, Options[testMsg]{Counters: counters})
	b := New[testMsg](addr, Options[testMsg]{Counters: counters})
	defer a.Close()
	defer b.Close()
	if _, err := a.RoundTrip(context.Background(), reqLine("a"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RoundTrip(context.Background(), reqLine("b"), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if st := counters.Snapshot(); st.Dials != 2 {
		t.Errorf("shared counters saw %d dials, want 2", st.Dials)
	}
}

func TestRetrySleepHonorsContextAndCap(t *testing.T) {
	r := Retry{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond, Jitter: backoff.NewJitter(1)}
	// A cancelled context aborts the sleep.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.Sleep(ctx, 1); err != context.Canceled {
		t.Errorf("Sleep on cancelled ctx = %v, want context.Canceled", err)
	}
	// Deep attempts stay bounded by the cap (1.5x jitter ceiling).
	start := time.Now()
	if err := r.Sleep(context.Background(), 30); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("capped sleep took %s", elapsed)
	}
	// Uncapped overflowing shifts fall back to Base rather than zero or
	// negative.
	r2 := Retry{Base: 10 * time.Millisecond, Jitter: backoff.NewJitter(1)}
	start = time.Now()
	if err := r2.Sleep(context.Background(), 80); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("overflowed uncapped sleep took %s", elapsed)
	}
}
