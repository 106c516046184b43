package iotssp

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/fingerprint"
)

// startServer serves svc with cfg on an ephemeral loopback listener and
// returns its address. Cleanup closes the server.
func startServer(t *testing.T, svc *Service, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv := NewServer(svc, cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

// requestLine marshals one request line for raw-conn tests.
func requestLine(t *testing.T, mac string, fp *fingerprint.Fingerprint) []byte {
	t.Helper()
	report, err := fingerprint.MarshalReportPacked(mac, fp)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(Request{Fingerprint: report})
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// TestServerMalformedLinesKeepConnectionAlive interleaves good and bad
// request lines on one connection: every bad line must be answered with
// an error naming its line number, and the good lines around it must
// still be served on the same connection.
func TestServerMalformedLinesKeepConnectionAlive(t *testing.T) {
	svc, ds := testService(t)
	_, addr := startServer(t, svc, ServerConfig{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var payload []byte
	payload = append(payload, requestLine(t, "02:00:00:00:00:01", ds["Aria"][0])...)         // line 1: good
	payload = append(payload, []byte("this is not json\n")...)                               // line 2: bad JSON
	payload = append(payload, requestLine(t, "02:00:00:00:00:03", ds["HueBridge"][0])...)    // line 3: good
	payload = append(payload, []byte(`{"fingerprint":{"mac":"x","packed":"gA=="}}`+"\n")...) // line 4: bad matrix
	payload = append(payload, requestLine(t, "02:00:00:00:00:05", ds["Aria"][1])...)         // line 5: good
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	byLine := make(map[uint64]Response)
	for i := 0; i < 5; i++ {
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading response %d: %v", i, err)
		}
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("decoding response %d: %v", i, err)
		}
		byLine[resp.Line] = resp
	}

	for _, line := range []uint64{2, 4} {
		resp, ok := byLine[line]
		if !ok {
			t.Fatalf("no response for bad line %d: %v", line, byLine)
		}
		if resp.Error == "" || !strings.Contains(resp.Error, fmt.Sprintf("line %d", line)) {
			t.Errorf("bad line %d error = %q, want the line number cited", line, resp.Error)
		}
		if resp.Retryable {
			t.Errorf("malformed line %d marked retryable", line)
		}
	}
	for line, wantType := range map[uint64]string{1: "Aria", 3: "HueBridge", 5: "Aria"} {
		resp, ok := byLine[line]
		if !ok {
			t.Fatalf("no response for good line %d", line)
		}
		if resp.Error != "" || resp.DeviceType != wantType {
			t.Errorf("good line %d after bad lines: %+v", line, resp)
		}
	}
}

// gatedBank is a Bank stub whose IdentifyBatch reports each flush's
// size on entered and then blocks until release is closed, so a test
// can hold the dispatcher inside a flush while it queues requests
// behind it. Every fingerprint comes back unknown.
type gatedBank struct {
	entered chan int
	release chan struct{}
	once    sync.Once
}

func (b *gatedBank) open() { b.once.Do(func() { close(b.release) }) }

func (b *gatedBank) Identify(*fingerprint.Fingerprint) core.Result { return core.Result{} }

func (b *gatedBank) IdentifyBatch(fps []*fingerprint.Fingerprint, _ int) []core.Result {
	b.entered <- len(fps)
	<-b.release
	return make([]core.Result, len(fps))
}

func (b *gatedBank) Versions() []uint64 { return []uint64{0} }

func (b *gatedBank) ShardOf(string) (int, bool) { return 0, false }

// startGatedServer serves an uncached service over a gatedBank with the
// default ServerConfig (BatchSize 32). The gate opens at cleanup, ahead
// of the server's Close.
func startGatedServer(t *testing.T) (*Server, *gatedBank, string) {
	t.Helper()
	bank := &gatedBank{entered: make(chan int, 8), release: make(chan struct{})}
	srv, addr := startServer(t, NewService(bank, ServiceConfig{CacheSize: -1}), ServerConfig{})
	t.Cleanup(bank.open)
	return srv, bank, addr
}

// dispatchFingerprint is the one fingerprint every dispatcher test sends.
func dispatchFingerprint(t *testing.T) *fingerprint.Fingerprint {
	t.Helper()
	traces, err := devices.GenerateRuns("Aria", devices.DefaultEnv(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return traces[0].Fingerprint()
}

// dispatchLines returns request lines first..last (MACs derived from
// the line number) carrying dispatchFingerprint.
func dispatchLines(t *testing.T, first, last int) []byte {
	t.Helper()
	fp := dispatchFingerprint(t)
	var payload []byte
	for i := first; i <= last; i++ {
		payload = append(payload, requestLine(t, fmt.Sprintf("02:00:00:00:%02x:%02x", i>>8, i&0xff), fp)...)
	}
	return payload
}

// waitQueued yields until n requests wait in the dispatcher's queue.
func waitQueued(srv *Server, n int) {
	for len(srv.queue) < n {
		runtime.Gosched()
	}
}

// wantFlushes checks the sizes of the next flushes to enter the bank.
func wantFlushes(t *testing.T, bank *gatedBank, sizes ...int) {
	t.Helper()
	for i, want := range sizes {
		if got := <-bank.entered; got != want {
			t.Fatalf("flush %d: %d requests, want %d", i, got, want)
		}
	}
}

// TestDispatchLoneRequestFlushesAlone sends one request to an idle
// server: it must reach the bank as a batch of one and be answered,
// with no timer to wait out for a batch that will never fill.
func TestDispatchLoneRequestFlushesAlone(t *testing.T) {
	srv, bank, addr := startGatedServer(t)
	bank.open()

	c := newTestClient(addr)
	defer c.Close()
	const mac = "02:00:00:00:01:01"
	resp, err := c.Identify(context.Background(), mac, dispatchFingerprint(t))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || resp.MAC != mac || resp.Known {
		t.Errorf("response = %+v, want an unknown verdict for %s", resp, mac)
	}
	wantFlushes(t, bank, 1)
	if st := srv.Counters(); st.Batches != 1 || st.BatchedRequests != 1 || st.MaxBatch != 1 {
		t.Errorf("batches=%d batched=%d max=%d, want 1/1/1", st.Batches, st.BatchedRequests, st.MaxBatch)
	}
}

// TestDispatchDrainsQueueIntoFullBatches holds a first flush in the
// bank while 64 more requests queue behind it: once released, the
// queued requests must leave as exactly two full batches of 32, and
// every request must be answered with its own line.
func TestDispatchDrainsQueueIntoFullBatches(t *testing.T) {
	srv, bank, addr := startGatedServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Write(dispatchLines(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	wantFlushes(t, bank, 1)
	if _, err := conn.Write(dispatchLines(t, 2, 65)); err != nil {
		t.Fatal(err)
	}
	waitQueued(srv, 64)
	bank.open()

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	seen := make(map[uint64]bool)
	for i := 0; i < 65; i++ {
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Error != "" || resp.Line < 1 || resp.Line > 65 || seen[resp.Line] {
			t.Fatalf("response %d = %+v", i, resp)
		}
		seen[resp.Line] = true
	}
	wantFlushes(t, bank, 32, 32)
	if st := srv.Counters(); st.Batches != 3 || st.BatchedRequests != 65 || st.MaxBatch != 32 {
		t.Errorf("batches=%d batched=%d max=%d, want 3/65/32", st.Batches, st.BatchedRequests, st.MaxBatch)
	}
}

// TestDispatchCloseFlushesQueuedRequests closes the server while one
// flush is held in the bank and 40 requests are still queued: Close
// must not return before every queued request has been flushed through
// the bank, the last ones in a short batch taken as the queue closes.
func TestDispatchCloseFlushesQueuedRequests(t *testing.T) {
	srv, bank, addr := startGatedServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Write(dispatchLines(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	wantFlushes(t, bank, 1)
	if _, err := conn.Write(dispatchLines(t, 2, 41)); err != nil {
		t.Fatal(err)
	}
	waitQueued(srv, 40)

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for srv.Healthy() {
		runtime.Gosched()
	}
	bank.open()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	wantFlushes(t, bank, 32, 8)
	if st := srv.Counters(); st.Batches != 3 || st.BatchedRequests != 41 {
		t.Errorf("batches=%d batched=%d, want 3/41", st.Batches, st.BatchedRequests)
	}
}

// TestServerBackpressureQueueFull floods a tiny-queue server with one
// pipelined burst: the server must answer the overflow with retryable
// errors instead of queueing it, and still serve what it admitted —
// with the connection left alive throughout.
func TestServerBackpressureQueueFull(t *testing.T) {
	svc, ds := testService(t)
	srv, addr := startServer(t, svc, ServerConfig{
		QueueCapacity: 2,
		BatchSize:     2,
		WriteQueue:    4096,
	})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const burst = 400
	var payload []byte
	for i := 0; i < burst; i++ {
		payload = append(payload, requestLine(t, fmt.Sprintf("02:00:00:00:02:%02x", i%256), ds["Aria"][i%len(ds["Aria"])])...)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReaderSize(conn, 1<<20)
	var served, refused int
	for i := 0; i < burst; i++ {
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("response %d/%d: %v", i, burst, err)
		}
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		switch {
		case resp.Error == "":
			served++
		case resp.Retryable:
			refused++
			if !strings.Contains(resp.Error, "overloaded") {
				t.Errorf("retryable error = %q", resp.Error)
			}
		default:
			t.Errorf("unexpected hard error: %q", resp.Error)
		}
	}
	if served == 0 || refused == 0 {
		t.Fatalf("served=%d refused=%d: want both under overload", served, refused)
	}
	if st := srv.Counters(); st.Overloaded != uint64(refused) {
		t.Errorf("stats.Overloaded = %d, responses said %d", st.Overloaded, refused)
	}

	// The connection is still usable after the storm.
	if _, err := conn.Write(requestLine(t, "02:00:00:00:03:01", ds["HueBridge"][0])); err != nil {
		t.Fatal(err)
	}
	deadlineScan(t, br, func(resp Response) bool { return resp.Error == "" && resp.DeviceType == "HueBridge" })
}

// deadlineScan reads responses until pred accepts one (overload errors
// from the tail of a previous storm may still be in flight).
func deadlineScan(t *testing.T, br *bufio.Reader, pred func(Response) bool) {
	t.Helper()
	for {
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("scanning for response: %v", err)
		}
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		if pred(resp) {
			return
		}
	}
}

// TestServerConnectionLimit verifies the bounded accept loop: beyond
// MaxConns the server answers with a retryable refusal and closes.
func TestServerConnectionLimit(t *testing.T) {
	svc, ds := testService(t)
	srv, addr := startServer(t, svc, ServerConfig{MaxConns: 1})

	first := newTestClient(addr)
	defer first.Close()
	if _, err := first.Identify(context.Background(), "02:00:00:00:04:01", ds["Aria"][0]); err != nil {
		t.Fatal(err)
	}

	second, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(10 * time.Second))
	raw, err := bufio.NewReader(second).ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Retryable || !strings.Contains(resp.Error, "connection capacity") {
		t.Fatalf("refusal = %+v", resp)
	}
	if _, err := bufio.NewReader(second).ReadByte(); err == nil {
		t.Error("refused connection left open")
	}
	if st := srv.Counters(); st.ConnsRefused != 1 {
		t.Errorf("conns refused = %d", st.ConnsRefused)
	}

	// The admitted connection keeps working.
	if _, err := first.Identify(context.Background(), "02:00:00:00:04:02", ds["Aria"][1]); err != nil {
		t.Errorf("admitted connection broken after refusal: %v", err)
	}
}

// TestServerOutOfOrderResponsesCarryCorrelation pipelines distinct
// fingerprints on one connection and checks every response can be
// matched to its request by MAC and line, whatever the arrival order.
func TestServerOutOfOrderResponsesCarryCorrelation(t *testing.T) {
	svc, ds := testService(t)
	_, addr := startServer(t, svc, ServerConfig{BatchSize: 4})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	types := []string{"Aria", "HueBridge", "EdimaxCam", "WeMoSwitch"}
	var payload []byte
	want := make(map[uint64]string) // line -> expected MAC
	for i, typ := range types {
		mac := fmt.Sprintf("02:00:00:00:05:%02x", i)
		want[uint64(i+1)] = mac
		payload = append(payload, requestLine(t, mac, ds[typ][0])...)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for range types {
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		mac, ok := want[resp.Line]
		if !ok {
			t.Fatalf("response for unknown line %d", resp.Line)
		}
		delete(want, resp.Line)
		if resp.MAC != mac {
			t.Errorf("line %d: MAC %q, want %q", resp.Line, resp.MAC, mac)
		}
	}
	if len(want) != 0 {
		t.Errorf("lines never answered: %v", want)
	}
}
