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

// requestFrame encodes one identify frame for raw-conn tests.
func requestFrame(mac string, fp *fingerprint.Fingerprint) []byte {
	return AppendIdentifyFrame(nil, mac, fp)
}

// rawIdentifyFrame frames an arbitrary matrix, checked or not.
func rawIdentifyFrame(mac string, matrix []byte) []byte {
	frame := append(appendString([]byte{frameIdentify, 0, 0, 0, 0}, mac), matrix...)
	return sealFrame(frame, 0)
}

// readReply reads one reply off a raw connection: a JSON line when it
// opens with '{', else a verdict frame.
func readReply(t *testing.T, br *bufio.Reader) Response {
	t.Helper()
	first, err := br.Peek(1)
	if err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	var resp Response
	if first[0] == '{' {
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading reply line: %v", err)
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("decoding reply line %q: %v", raw, err)
		}
		return resp
	}
	if resp, _, err = NewVerdictReader()(br); err != nil {
		t.Fatalf("decoding reply frame: %v", err)
	}
	return resp
}

// TestServerMalformedLinesKeepConnectionAlive interleaves good and bad
// requests on one connection — a JSON line that is not JSON, a frame
// whose matrix ends inside a varint: every bad message must be answered
// with an error naming its line (message) number, and the good frames
// around it must still be served on the same connection.
func TestServerMalformedLinesKeepConnectionAlive(t *testing.T) {
	svc, ds := testService(t)
	_, addr := startServer(t, svc, ServerConfig{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var payload []byte
	payload = append(payload, requestFrame("02:00:00:00:00:01", ds["Aria"][0])...)      // line 1: good
	payload = append(payload, []byte("this is not json\n")...)                          // line 2: bad JSON
	payload = append(payload, requestFrame("02:00:00:00:00:03", ds["HueBridge"][0])...) // line 3: good
	payload = append(payload, rawIdentifyFrame("x", []byte{0x80})...)                   // line 4: bad matrix
	payload = append(payload, requestFrame("02:00:00:00:00:05", ds["Aria"][1])...)      // line 5: good
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	byLine := make(map[uint64]Response)
	for i := 0; i < 5; i++ {
		resp := readReply(t, br)
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

func (b *gatedBank) AppendVersions(dst []uint64) []uint64 { return append(dst, 0) }

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

// dispatchLines returns identify frames first..last (MACs derived from
// the line number) carrying dispatchFingerprint.
func dispatchLines(t *testing.T, first, last int) []byte {
	t.Helper()
	fp := dispatchFingerprint(t)
	var payload []byte
	for i := first; i <= last; i++ {
		payload = append(payload, requestFrame(fmt.Sprintf("02:00:00:00:%02x:%02x", i>>8, i&0xff), fp)...)
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
		resp := readReply(t, br)
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
		payload = append(payload, requestFrame(fmt.Sprintf("02:00:00:00:02:%02x", i%256), ds["Aria"][i%len(ds["Aria"])])...)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReaderSize(conn, 1<<20)
	var served, refused int
	for i := 0; i < burst; i++ {
		resp := readReply(t, br)
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
	if _, err := conn.Write(requestFrame("02:00:00:00:03:01", ds["HueBridge"][0])); err != nil {
		t.Fatal(err)
	}
	deadlineScan(t, br, func(resp Response) bool { return resp.Error == "" && resp.DeviceType == "HueBridge" })
}

// deadlineScan reads responses until pred accepts one (overload errors
// from the tail of a previous storm may still be in flight).
func deadlineScan(t *testing.T, br *bufio.Reader, pred func(Response) bool) {
	t.Helper()
	for {
		if pred(readReply(t, br)) {
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
// matched to its request by line, whatever the arrival order: the
// verdict on each line is the one for the type sent on it.
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
	want := make(map[uint64]string) // line -> expected type
	for i, typ := range types {
		want[uint64(i+1)] = typ
		payload = append(payload, requestFrame(fmt.Sprintf("02:00:00:00:05:%02x", i), ds[typ][0])...)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for range types {
		resp := readReply(t, br)
		typ, ok := want[resp.Line]
		if !ok {
			t.Fatalf("response for unknown line %d", resp.Line)
		}
		delete(want, resp.Line)
		if resp.DeviceType != typ {
			t.Errorf("line %d: verdict %q, want %q", resp.Line, resp.DeviceType, typ)
		}
	}
	if len(want) != 0 {
		t.Errorf("lines never answered: %v", want)
	}
}

// TestServerRefusesEncodedIdentifyLines: identify requests travel only
// as frames, so a JSON identify line — plain, or carrying an "enc" for
// a dictionary the server never grants — is refused non-retryably,
// citing its line, and the connection keeps serving frames.
func TestServerRefusesEncodedIdentifyLines(t *testing.T) {
	svc, ds := testService(t)
	srv, addr := startServer(t, svc, ServerConfig{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const plain = `{"fingerprint":{"mac":"02:00:00:00:00:01","packed":"AAIEAAIEAAIEAAIEAAIEAAIEAAIEAAIJBQECBgoOEhYaHiImKi4yNjo+QkZKTg=="}}`
	lines := []string{plain}
	for _, enc := range []string{`"dict"`, `"delta"`, `""`, `null`, `7`} {
		lines = append(lines, strings.Replace(plain, `{"fingerprint"`, `{"enc":`+enc+`,"fingerprint"`, 1))
	}
	var payload []byte
	for _, line := range lines {
		payload = append(payload, line+"\n"...)
	}
	payload = append(payload, requestFrame("02:00:00:00:00:01", ds["Aria"][0])...)
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	byLine := make(map[uint64]Response)
	for i := 0; i <= len(lines); i++ {
		resp := readReply(t, br)
		byLine[resp.Line] = resp
	}
	for i, raw := range lines {
		line := uint64(i + 1)
		resp := byLine[line]
		if resp.Error == "" || resp.Retryable || !strings.Contains(resp.Error, fmt.Sprintf("line %d", line)) {
			t.Errorf("JSON identify %s answered %+v, want a non-retryable error citing line %d", raw, resp, line)
		}
	}
	if resp := byLine[uint64(len(lines)+1)]; resp.Error != "" || resp.DeviceType != "Aria" {
		t.Errorf("frame after the refused lines: %+v", resp)
	}
	if st := srv.Counters(); st.Malformed != uint64(len(lines)) || st.Requests != 1 {
		t.Errorf("malformed=%d requests=%d, want %d and 1", st.Malformed, st.Requests, len(lines))
	}
}

// TestVerdictHelloGrantsNothing: a verdict connection holds no state,
// so a hello asking for a dictionary and flate framing is answered
// with the mode and protocol version alone, and identify frames after
// it are served as on any connection.
func TestVerdictHelloGrantsNothing(t *testing.T) {
	svc, ds := testService(t)
	_, addr := startServer(t, svc, ServerConfig{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte(`{"op":"hello","dict":512,"comp":"flate"}` + "\n")
	payload = append(payload, requestFrame("02:00:00:00:00:02", ds["HueBridge"][0])...)
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	raw, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var hello map[string]any
	if err := json.Unmarshal(raw, &hello); err != nil {
		t.Fatalf("hello reply %q: %v", raw, err)
	}
	want := map[string]any{"op": OpHello, "line": float64(1), "mode": ModeVerdict, "v": float64(ProtocolVersion)}
	if fmt.Sprint(hello) != fmt.Sprint(want) {
		t.Fatalf("hello reply %s, want exactly %v", raw, want)
	}
	if resp := readReply(t, br); resp.Line != 2 || resp.DeviceType != "HueBridge" {
		t.Fatalf("identify after the hello = %+v", resp)
	}
}

// TestDispatchAllHitFlushAllocatesNothing pins the warm path's
// allocation budget: once every print of a flush is cached, the
// dispatcher's flush — cache probes, verdict assembly for trusted and
// restricted types alike, and the hand-off to the connection's write
// pump — allocates nothing.
func TestDispatchAllHitFlushAllocatesNothing(t *testing.T) {
	svc, ds := testService(t)
	srv := NewServer(svc, ServerConfig{})
	defer srv.Close()
	w := &connWriter{srv: srv, ch: make(chan reply, 64)}
	var batch []dispatchItem
	var keys []uint64
	var matrices [][]byte
	for _, name := range []string{"Aria", "HueBridge", "EdimaxCam", "SmarterCoffee", "WeMoSwitch"} {
		for _, fp := range ds[name][:2] {
			m := fingerprint.AppendBinary(nil, fp)
			key := svc.keyBytes(m)
			batch = append(batch, dispatchItem{key: key, matrix: m, line: uint64(len(batch) + 1), out: w})
			keys = append(keys, key)
			matrices = append(matrices, m)
		}
	}
	var sc flushScratch
	flush := func() {
		srv.processBatch(&sc, batch, keys, matrices)
		for range batch {
			<-w.ch
		}
	}
	flush() // the misses fill the cache
	restricted := 0
	for _, r := range srv.svc.identifyMatrices(&sc, keys, matrices, 1) {
		if r.Level == "restricted" {
			restricted++
		}
	}
	if restricted == 0 {
		t.Fatal("no restricted verdict in the flush: the advisory path goes unmeasured")
	}
	if got := testing.AllocsPerRun(50, flush); got != 0 {
		t.Errorf("an all-hit flush of %d requests allocates %.1f times, want 0", len(batch), got)
	}
	if st := svc.CacheStats(); st.Misses > uint64(len(batch)) {
		t.Errorf("cache misses = %d past the warm-up flush", st.Misses)
	}
}
