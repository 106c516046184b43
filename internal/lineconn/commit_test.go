package lineconn

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestRoundTripGroupCommitKeepsLineOrder: 8 goroutines × 200
// round-trips share one connection whose peer answers every line it
// has buffered in reverse. Each request carries a sequence number its
// encoder stamped under the connection lock, so the peer can check
// that the n-th line it reads is line n: group commit must keep wire
// order equal to line order. Every reply must reach its own caller.
func TestRoundTripGroupCommitKeepsLineOrder(t *testing.T) {
	const callers, each = 8, 200
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	peerErr := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			peerErr <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var parked []testMsg
		for line := uint64(1); ; line++ {
			raw, err := br.ReadBytes('\n')
			if err != nil {
				peerErr <- nil
				return
			}
			var req struct {
				Tag string `json:"tag"`
				Seq uint64 `json:"seq"`
			}
			if err := json.Unmarshal(raw, &req); err != nil || req.Seq != line {
				peerErr <- fmt.Errorf("line %d carried %q: wire order is not line order", line, raw)
				return
			}
			parked = append(parked, testMsg{Line: line, Tag: req.Tag})
			if br.Buffered() > 0 {
				continue // more lines arrived in the same write
			}
			var out []byte
			for i := len(parked) - 1; i >= 0; i-- {
				b, _ := json.Marshal(parked[i])
				out = append(append(out, b...), '\n')
			}
			parked = parked[:0]
			if _, err := conn.Write(out); err != nil {
				peerErr <- err
				return
			}
		}
	}()

	c := New[testMsg](lis.Addr().String(), Options[testMsg]{})
	var seq uint64 // advanced by encoders, which run under the connection lock
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tag := fmt.Sprintf("g%d-%d", g, i)
				msg, _, err := c.RoundTripEnc(context.Background(), func(any) ([]byte, error) {
					seq++
					return []byte(fmt.Sprintf("{\"tag\":%q,\"seq\":%d}\n", tag, seq)), nil
				}, 10*time.Second)
				if err != nil {
					t.Errorf("%s: %v", tag, err)
					return
				}
				if msg.Tag != tag {
					t.Errorf("%s received the reply for %q (line %d)", tag, msg.Tag, msg.Line)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.counters.Snapshot()
	c.Close()
	if err := <-peerErr; err != nil {
		t.Fatal(err)
	}
	if st.Dials != 1 || st.Writes == 0 || st.Writes > callers*each {
		t.Errorf("transport counters %+v: want one dial and 1..%d writes", st, callers*each)
	}
	t.Logf("%d round-trips in %d writes", callers*each, st.Writes)
}

// TestSeverMidFlushFailsQueueAndRedialsClean: the peer stops reading,
// so a large request wedges its flusher in the kernel while two more
// round-trips queue behind it; then the peer closes. Every queued
// waiter must fail, and the next round-trip must redial and arrive as
// line 1 of the new connection — no byte of the dead incarnation's
// queue may follow it there.
func TestSeverMidFlushFailsQueueAndRedialsClean(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	sever := make(chan struct{})
	firstLine := make(chan []byte, 1)
	go func() {
		// First connection: never read, close on cue.
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		conn.(*net.TCPConn).SetReadBuffer(4096)
		<-sever
		conn.Close()
		// Second connection: answer line 1 and report what it carried.
		conn, err = lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		raw, err := bufio.NewReader(conn).ReadBytes('\n')
		if err != nil {
			firstLine <- nil
			return
		}
		firstLine <- raw
		respond(t, conn, testMsg{Line: 1, Tag: "fresh"})
		time.Sleep(50 * time.Millisecond) // let any stale bytes arrive before the close
	}()

	c := New[testMsg](lis.Addr().String(), Options[testMsg]{})
	defer c.Close()
	big := append(bytes.Repeat([]byte("x"), 8<<20), '\n')
	bodies := [][]byte{big, reqLine("queued-1"), reqLine("queued-2")}
	errs := make([]error, len(bodies))
	var wg sync.WaitGroup
	start := func(j int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[j] = c.RoundTrip(context.Background(), bodies[j], 30*time.Second)
		}()
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for i := 0; ; i++ {
			c.mu.Lock()
			ok := cond()
			c.mu.Unlock()
			if ok {
				return
			}
			if i > 5000 {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	start(0)
	waitFor("the flusher to take the large line", func() bool { return c.writing && c.lines == 1 && len(c.out) == 0 })
	start(1)
	start(2)
	waitFor("two lines queued behind the flush", func() bool { return c.lines == 3 && len(c.out) > 0 })
	close(sever)
	wg.Wait()
	for j, err := range errs {
		if err == nil {
			t.Errorf("round-trip %d succeeded on a severed connection", j)
		}
	}

	msg, err := c.RoundTrip(context.Background(), reqLine("fresh"), 10*time.Second)
	if err != nil {
		t.Fatalf("round-trip after the sever: %v", err)
	}
	if msg.Line != 1 || msg.Tag != "fresh" {
		t.Errorf("reply %+v, want line 1 of the new connection", msg)
	}
	if got := <-firstLine; !bytes.Equal(got, reqLine("fresh")) {
		t.Errorf("new connection's line 1 = %.80q, want the fresh request", got)
	}
	if st := c.counters.Snapshot(); st.Dials != 2 || st.Reconnects != 1 {
		t.Errorf("transport counters %+v, want one redial", st)
	}
}

// TestRoundTripTimerReuseDrainsStaleTick: a recycled waiter whose timer
// fired as its reply arrived must not carry the tick into its next
// round-trip. Timer channels are asynchronous under go 1.22 semantics,
// where a tick can also land after Stop reported it too late to stop:
// the next wait must survive that as well.
func TestRoundTripTimerReuseDrainsStaleTick(t *testing.T) {
	w := &waiter[testMsg]{ch: make(chan result[testMsg], 1)}
	deadline := time.Now().Add(time.Millisecond)
	w.ch <- result[testMsg]{msg: testMsg{Tag: "first"}}
	time.Sleep(5 * time.Millisecond) // the timer armed below fires at once, beside the reply
	if res, err := w.await(context.Background(), deadline); err != nil && err != errDeadline {
		t.Fatal(err)
	} else if err == nil && res.msg.Tag != "first" {
		t.Fatalf("first wait got %+v", res.msg)
	}
	select {
	case <-w.ch:
	default:
	}

	// A stale tick left in the channel, as an unlucky Stop would leave
	// it: the next round-trip must wait for its reply regardless.
	w.disarm()
	w.timer.Reset(time.Nanosecond)
	time.Sleep(5 * time.Millisecond)
	go func() {
		time.Sleep(20 * time.Millisecond)
		w.ch <- result[testMsg]{msg: testMsg{Tag: "second"}}
	}()
	res, err := w.await(context.Background(), time.Now().Add(10*time.Second))
	if err != nil || res.msg.Tag != "second" {
		t.Fatalf("reused waiter: %+v, %v; want the second reply", res.msg, err)
	}
	if n := len(w.timer.C); n != 0 {
		t.Errorf("a returned waiter still holds %d ticks", n)
	}

	// End to end: sequential round-trips recycle one waiter; none may
	// fail on a tick its timer sent for an earlier one.
	addr := scriptedServer(t, func(conn net.Conn, line int, raw []byte) bool {
		respond(t, conn, testMsg{Line: uint64(line), Tag: "ok"})
		return true
	})
	c := New[testMsg](addr, Options[testMsg]{})
	defer c.Close()
	for i := 0; i < 200; i++ {
		if _, err := c.RoundTrip(context.Background(), reqLine("x"), 5*time.Second); err != nil {
			t.Fatalf("round-trip %d: %v", i, err)
		}
	}
}
