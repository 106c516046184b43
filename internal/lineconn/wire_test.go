package lineconn

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// statefulEchoServer answers a hello on line 1 with mode "stateful",
// then echoes every later request line's tag. killAfter > 0 severs each
// connection after that many post-hello requests (testing state reset
// across reconnects).
func statefulEchoServer(t *testing.T, killAfter int) string {
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
				if _, err := br.ReadBytes('\n'); err != nil {
					return
				}
				respond(t, conn, testMsg{Line: 1, Mode: "stateful"})
				line := uint64(1)
				served := 0
				for {
					raw, err := br.ReadBytes('\n')
					if err != nil {
						return
					}
					line++
					var req testMsg
					if err := json.Unmarshal(raw, &req); err != nil {
						return
					}
					respond(t, conn, testMsg{Line: line, Tag: req.Tag})
					served++
					if killAfter > 0 && served >= killAfter {
						return
					}
				}
			}(conn)
		}
	}()
	return lis.Addr().String()
}

// connState is the per-incarnation codec state of these tests: a
// request counter proving encoders see the incarnation's own state.
type connState struct{ sent int }

func statefulOptions(counters *Counters, births *atomic.Uint64) Options[testMsg] {
	return Options[testMsg]{
		Counters: counters,
		Hello:    []byte(`{"op":"hello"}` + "\n"),
		CheckHello: func(m testMsg) error {
			if m.Mode != "stateful" {
				return fmt.Errorf("mode %q", m.Mode)
			}
			return nil
		},
		NewState: func(m testMsg) any {
			if births != nil {
				births.Add(1)
			}
			return &connState{}
		},
	}
}

// TestStatefulConnectionThreadsStateAndCounts: encoders run against the
// incarnation's state, and handshake bytes are counted apart from the
// steady-state lines.
func TestStatefulConnectionThreadsStateAndCounts(t *testing.T) {
	addr := statefulEchoServer(t, 0)
	counters := NewCounters()
	c := New[testMsg](addr, statefulOptions(counters, nil))
	defer c.Close()

	var out, in int
	for i := 0; i < 8; i++ {
		enc := func(state any) ([]byte, error) {
			st := state.(*connState)
			st.sent++
			return reqLine(fmt.Sprintf("n%d", st.sent)), nil
		}
		msg, sizes, err := c.RoundTripEnc(context.Background(), enc, 2*time.Second)
		if err != nil {
			t.Fatalf("round-trip %d: %v", i, err)
		}
		if want := fmt.Sprintf("n%d", i+1); msg.Tag != want {
			t.Fatalf("round-trip %d echoed %q, want %q: state not threaded", i, msg.Tag, want)
		}
		if sizes.Wrote == 0 || sizes.Read == 0 {
			t.Fatalf("round-trip %d sizes = %+v", i, sizes)
		}
		out += sizes.Wrote
		in += sizes.Read
	}

	st := counters.Snapshot()
	if st.HandshakeBytesWritten == 0 || st.HandshakeBytesRead == 0 {
		t.Fatalf("handshake bytes not accounted: %+v", st)
	}
	if got := st.BytesWritten - st.HandshakeBytesWritten; got != uint64(out) {
		t.Errorf("steady bytes written %d, want the %d the round-trips reported", got, out)
	}
	if got := st.BytesRead - st.HandshakeBytesRead; got != uint64(in) {
		t.Errorf("steady bytes read %d, want the %d the round-trips reported", got, in)
	}
}

func TestStateResetsOnReconnect(t *testing.T) {
	addr := statefulEchoServer(t, 3)
	counters := NewCounters()
	var births atomic.Uint64
	c := New[testMsg](addr, statefulOptions(counters, &births))
	defer c.Close()

	firstOfConn := 0
	for i := 0; i < 8; i++ {
		enc := func(state any) ([]byte, error) {
			st := state.(*connState)
			st.sent++
			firstOfConn = st.sent
			return reqLine(fmt.Sprintf("n%d", st.sent)), nil
		}
		msg, _, err := c.RoundTripEnc(context.Background(), enc, 2*time.Second)
		if err != nil {
			// The server killed the connection; the next call redials.
			continue
		}
		if msg.Tag != fmt.Sprintf("n%d", firstOfConn) {
			t.Fatalf("round-trip %d echoed %q, want n%d", i, msg.Tag, firstOfConn)
		}
		if firstOfConn > 3 {
			t.Fatalf("state survived a reconnect: counter reached %d on a kill-after-3 server", firstOfConn)
		}
	}
	if births.Load() < 2 {
		t.Fatalf("NewState ran %d times across kills, want a fresh state per incarnation", births.Load())
	}
	if st := counters.Snapshot(); st.Reconnects == 0 {
		t.Fatalf("no reconnects recorded: %+v", st)
	}
}

func TestStatelessHelloReplyGetsNilState(t *testing.T) {
	// A NewState hook that declines the reply leaves the connection
	// stateless: encoders see nil.
	addr := scriptedServer(t, func(conn net.Conn, line int, raw []byte) bool {
		respond(t, conn, testMsg{Line: uint64(line), Tag: "plain"})
		return true
	})
	opts := statefulOptions(NewCounters(), nil)
	opts.CheckHello = nil // accept any hello reply; mode decides state
	opts.NewState = func(m testMsg) any {
		if m.Mode == "stateful" {
			return &connState{}
		}
		return nil
	}
	c := New[testMsg](addr, opts)
	defer c.Close()

	enc := func(state any) ([]byte, error) {
		if state != nil {
			return nil, fmt.Errorf("stateless peer got state %T", state)
		}
		return reqLine("x"), nil
	}
	msg, _, err := c.RoundTripEnc(context.Background(), enc, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tag != "plain" {
		t.Fatalf("echoed %q", msg.Tag)
	}
}
