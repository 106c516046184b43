package gateway

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/devices"
	"repro/internal/fingerprint"
	"repro/internal/iotssp"
)

// startTestServer serves an in-process IoTSSP over TCP for pool tests.
func startTestServer(t *testing.T, svc *iotssp.Service) string {
	t.Helper()
	srv := iotssp.NewServer(svc, iotssp.ServerConfig{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String()
}

func TestPoolConcurrentIdentifications(t *testing.T) {
	svc := trainedService(t, "Aria", "HueBridge", "EdimaxCam", "WeMoSwitch")
	addr := startTestServer(t, svc)

	probes := make(map[string]*devicesProbe)
	for _, name := range []string{"Aria", "HueBridge", "EdimaxCam", "WeMoSwitch"} {
		probes[name] = probeFor(t, name)
	}

	pool := NewPool(addr, PoolConfig{Conns: 3, Seed: 11})
	defer pool.Close()

	const perType = 8
	var wg sync.WaitGroup
	for name, probe := range probes {
		for i := 0; i < perType; i++ {
			wg.Add(1)
			go func(name string, probe *devicesProbe, i int) {
				defer wg.Done()
				mac := fmt.Sprintf("02:77:%02x:00:00:%02x", len(name), i)
				resp, err := pool.Identify(context.Background(), mac, probe.fp)
				if err != nil {
					t.Errorf("%s/%d: %v", name, i, err)
					return
				}
				if resp.MAC != mac {
					t.Errorf("%s/%d: MAC echo %q, want %q", name, i, resp.MAC, mac)
				}
				if resp.DeviceType != name {
					t.Errorf("%s/%d: identified as %q", name, i, resp.DeviceType)
				}
			}(name, probe, i)
		}
	}
	wg.Wait()

	st := pool.Counters()
	if st.Requests != 4*perType {
		t.Errorf("requests = %d", st.Requests)
	}
	if st.Transport.Dials > 3 {
		t.Errorf("dials = %d, want <= pool size 3 (connections must persist)", st.Transport.Dials)
	}
	if st.Failures != 0 {
		t.Errorf("failures = %d", st.Failures)
	}
}

// devicesProbe holds a held-out probe fingerprint for pool tests.
type devicesProbe struct {
	fp *fingerprint.Fingerprint
}

// probeFor generates one fresh setup fingerprint of a device-type,
// disjoint from the training runs.
func probeFor(t *testing.T, name string) *devicesProbe {
	t.Helper()
	traces, err := devices.GenerateRuns(name, devices.DefaultEnv(), 22, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &devicesProbe{fp: traces[0].Fingerprint()}
}

// fakeService runs a hand-scripted frame peer for failure injection.
// handle is called per connection with its decoded identify frames;
// returning false closes the connection.
func fakeService(t *testing.T, handle func(conn net.Conn, count int, req iotssp.Request) bool) string {
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
				count := 0
				for {
					req, err := iotssp.ReadRequest(br)
					if err != nil {
						return
					}
					count++
					if !handle(conn, count, req) {
						return
					}
				}
			}(conn)
		}
	}()
	return lis.Addr().String()
}

func respond(conn net.Conn, resp iotssp.Response) {
	conn.Write(iotssp.AppendVerdictFrame(nil, &resp))
}

func TestPoolRetriesBackpressure(t *testing.T) {
	probe := probeFor(t, "Aria")
	var mu sync.Mutex
	rejected := 0
	addr := fakeService(t, func(conn net.Conn, count int, req iotssp.Request) bool {
		mu.Lock()
		first := rejected == 0
		if first {
			rejected++
		}
		mu.Unlock()
		if first {
			respond(conn, iotssp.Response{
				Line:      uint64(count),
				Error:     "server overloaded: request queue full",
				Retryable: true,
			})
			return true
		}
		respond(conn, iotssp.Response{Line: uint64(count), Known: true, DeviceType: "Aria", Stage: "classification", Level: "trusted"})
		return true
	})

	pool := NewPool(addr, PoolConfig{Conns: 1, RetryBackoff: time.Millisecond, Seed: 3})
	defer pool.Close()
	resp, err := pool.Identify(context.Background(), "02:77:00:00:00:01", probe.fp)
	if err != nil {
		t.Fatalf("Identify after backpressure: %v", err)
	}
	if resp.DeviceType != "Aria" {
		t.Errorf("resp = %+v", resp)
	}
	if st := pool.Counters(); st.Retries == 0 {
		t.Errorf("no retry recorded: %+v", st)
	}
}

func TestPoolReconnectsAfterConnDrop(t *testing.T) {
	probe := probeFor(t, "Aria")
	addr := fakeService(t, func(conn net.Conn, count int, req iotssp.Request) bool {
		respond(conn, iotssp.Response{Line: uint64(count), Known: true, DeviceType: "Aria", Stage: "classification", Level: "trusted"})
		return count < 1 // close after the first response on each connection
	})

	pool := NewPool(addr, PoolConfig{Conns: 1, RetryBackoff: time.Millisecond, Seed: 3})
	defer pool.Close()
	for i := 0; i < 3; i++ {
		if _, err := pool.Identify(context.Background(), "02:77:00:00:00:02", probe.fp); err != nil {
			t.Fatalf("Identify %d: %v", i, err)
		}
	}
	if st := pool.Counters(); st.Transport.Dials < 2 {
		t.Errorf("pool never redialed: %+v", st)
	}
}

func TestPoolMultiplexesOutOfOrderResponses(t *testing.T) {
	probe := probeFor(t, "Aria")
	// The same MAC twice plus a distinct one: line-echo correlation must
	// keep even same-MAC responses straight when the server reorders.
	macA := "02:77:00:00:00:0a"
	macB := "02:77:00:00:00:1b"

	type pending struct {
		req  iotssp.Request
		line int
	}
	var mu sync.Mutex
	var parked []pending
	addr := fakeService(t, func(conn net.Conn, count int, req iotssp.Request) bool {
		// Park requests; answer all three in reverse arrival order once
		// the last arrives.
		mu.Lock()
		defer mu.Unlock()
		parked = append(parked, pending{req: req, line: count})
		if len(parked) < 3 {
			return true
		}
		for i := len(parked) - 1; i >= 0; i-- {
			p := parked[i]
			respond(conn, iotssp.Response{
				Line: uint64(p.line), Known: true,
				DeviceType: fmt.Sprintf("type-for-line-%d", p.line),
				Stage:      "classification", Level: "trusted",
			})
		}
		parked = nil
		return true
	})

	// One connection so all requests share the pipe.
	pool := NewPool(addr, PoolConfig{Conns: 1, Seed: 3})
	defer pool.Close()

	var wg sync.WaitGroup
	got := make([]iotssp.Response, 3)
	for i, mac := range []string{macA, macA, macB} {
		wg.Add(1)
		go func(i int, mac string) {
			defer wg.Done()
			resp, err := pool.Identify(context.Background(), mac, probe.fp)
			if err != nil {
				t.Errorf("request %d (%s): %v", i, mac, err)
				return
			}
			if resp.MAC != mac {
				t.Errorf("request %d: MAC %q, want %q", i, resp.MAC, mac)
			}
			got[i] = resp
		}(i, mac)
	}
	wg.Wait()

	// Every caller must have received the response for its own line.
	for i, resp := range got {
		if resp.Line == 0 {
			continue // errored above
		}
		want := fmt.Sprintf("type-for-line-%d", resp.Line)
		if resp.DeviceType != want {
			t.Errorf("request %d: line %d carried %q: responses crossed wires", i, resp.Line, resp.DeviceType)
		}
	}
	lines := map[uint64]bool{}
	for _, resp := range got {
		lines[resp.Line] = true
	}
	if len(lines) != 3 {
		t.Errorf("line numbers not distinct across callers: %v", lines)
	}
}

func TestPoolHonorsContextDeadline(t *testing.T) {
	probe := probeFor(t, "Aria")
	addr := fakeService(t, func(conn net.Conn, count int, req iotssp.Request) bool {
		return true // swallow requests, never answer
	})
	pool := NewPool(addr, PoolConfig{Conns: 1, Seed: 3})
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := pool.Identify(ctx, "02:77:00:00:00:03", probe.fp)
	if err == nil {
		t.Fatal("Identify succeeded against a mute service")
	}
	if !strings.Contains(err.Error(), "deadline") && !strings.Contains(err.Error(), "context") {
		t.Errorf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("deadline ignored: took %s", time.Since(start))
	}
}

func TestPoolMACAffinity(t *testing.T) {
	pool := NewPool("127.0.0.1:1", PoolConfig{Conns: 4, Seed: 3})
	defer pool.Close()
	for _, mac := range []string{"02:00:00:00:00:01", "02:00:00:00:00:02", "aa:bb:cc:dd:ee:ff"} {
		first := pool.pick(mac)
		for i := 0; i < 5; i++ {
			if pool.pick(mac) != first {
				t.Fatalf("MAC %s not pinned to one connection", mac)
			}
		}
	}
}

func TestPoolIdentifyBatchSingleBurst(t *testing.T) {
	names := []string{"Aria", "HueBridge", "EdimaxCam", "WeMoSwitch"}
	svc := trainedService(t, names...)
	addr := startTestServer(t, svc)

	var macs []string
	var fps []*fingerprint.Fingerprint
	for i, name := range names {
		probe := probeFor(t, name)
		for k := 0; k < 4; k++ {
			macs = append(macs, fmt.Sprintf("02:78:%02x:00:00:%02x", i, k))
			fps = append(fps, probe.fp)
		}
	}

	pool := NewPool(addr, PoolConfig{Conns: 2, Seed: 21})
	defer pool.Close()
	resps, errs := pool.IdentifyBatch(context.Background(), macs, fps)
	for i := range macs {
		if errs[i] != nil {
			t.Fatalf("entry %d: %v", i, errs[i])
		}
		if resps[i].MAC != macs[i] {
			t.Errorf("entry %d: MAC echo %q, want %q", i, resps[i].MAC, macs[i])
		}
		if resps[i].DeviceType != names[i/4] {
			t.Errorf("entry %d: identified as %q, want %q", i, resps[i].DeviceType, names[i/4])
		}
	}
	st := pool.Counters()
	if st.Transport.Bursts == 0 || st.Transport.Bursts > 2 {
		t.Errorf("bursts = %d, want 1..2 (one per touched connection)", st.Transport.Bursts)
	}
	if st.Transport.BurstRequests != uint64(len(macs)) {
		t.Errorf("burst requests = %d, want %d", st.Transport.BurstRequests, len(macs))
	}
	if st.Transport.Dials > 2 {
		t.Errorf("dials = %d, want <= 2", st.Transport.Dials)
	}

	// A batched identification must agree with the single-request path.
	single, err := pool.Identify(context.Background(), macs[0], fps[0])
	if err != nil {
		t.Fatal(err)
	}
	single.Line = 0
	batched := resps[0]
	batched.Line = 0
	if !reflect.DeepEqual(single, batched) {
		t.Errorf("batched verdict %+v != single verdict %+v", batched, single)
	}
}

func TestPoolIdentifyBatchFallsBackOnBackpressure(t *testing.T) {
	probe := probeFor(t, "Aria")
	var mu sync.Mutex
	rejected := false
	addr := fakeService(t, func(conn net.Conn, count int, req iotssp.Request) bool {
		mu.Lock()
		first := !rejected
		if first {
			rejected = true
		}
		mu.Unlock()
		if first {
			respond(conn, iotssp.Response{
				Line:  uint64(count),
				Error: "overloaded", Retryable: true,
			})
			return true
		}
		respond(conn, iotssp.Response{
			Line: uint64(count), Known: true,
			DeviceType: "Aria", Stage: "classification", Level: "trusted",
		})
		return true
	})

	pool := NewPool(addr, PoolConfig{Conns: 1, RetryBackoff: time.Millisecond, Seed: 23})
	defer pool.Close()
	macs := []string{"02:79:00:00:00:01", "02:79:00:00:00:02", "02:79:00:00:00:03"}
	fps := []*fingerprint.Fingerprint{probe.fp, probe.fp, probe.fp}
	resps, errs := pool.IdentifyBatch(context.Background(), macs, fps)
	for i := range macs {
		if errs[i] != nil {
			t.Fatalf("entry %d not recovered from backpressure: %v", i, errs[i])
		}
		if resps[i].DeviceType != "Aria" || resps[i].MAC != macs[i] {
			t.Errorf("entry %d: %+v", i, resps[i])
		}
	}
	if st := pool.Counters(); st.Retries == 0 {
		t.Errorf("backpressured entry retried nowhere: %+v", st)
	} else if st.Requests != uint64(len(macs)) {
		t.Errorf("requests = %d, want %d (fallback retries must not double-count)", st.Requests, len(macs))
	}
}

// TestPoolAndLocalServiceShareCacheKeys: an in-process caller and a
// frame client key a print by the same canonical bytes, so a verdict
// cached through LocalService is a hit when the print arrives as a Pool
// frame, and the reverse.
func TestPoolAndLocalServiceShareCacheKeys(t *testing.T) {
	svc := trainedService(t, "Aria", "HueBridge")
	pool := NewPool(startTestServer(t, svc), PoolConfig{Conns: 1, Seed: 5})
	defer pool.Close()
	local := LocalService{Svc: svc}
	ctx := context.Background()

	step := func(name string, id Identifier, fp *fingerprint.Fingerprint, wantHits, wantMisses uint64) {
		t.Helper()
		before := svc.CacheStats()
		if _, err := id.Identify(ctx, "02:7a:00:00:00:01", fp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := svc.CacheStats()
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != wantHits || misses != wantMisses {
			t.Errorf("%s: %d hits, %d misses; want %d and %d", name, hits, misses, wantHits, wantMisses)
		}
	}
	aria, hue := probeFor(t, "Aria").fp, probeFor(t, "HueBridge").fp
	step("local, first sight", local, aria, 0, 1)
	step("pool frame after local", pool, aria, 1, 0)
	step("pool frame, first sight", pool, hue, 0, 1)
	step("local after pool frame", local, hue, 1, 0)
}

// TestPoolConnectionLimitIsBackpressure: a service at its connection
// limit refuses a Pool in the Pool's own wire — a retryable verdict
// frame for its first request — so the Pool records a backpressure
// retry rather than failing to decode the refusal, and gets through
// once a slot frees.
func TestPoolConnectionLimitIsBackpressure(t *testing.T) {
	probe := probeFor(t, "Aria")
	srv := iotssp.NewServer(trainedService(t, "Aria"), iotssp.ServerConfig{MaxConns: 1})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	addr := lis.Addr().String()

	holder := NewPool(addr, PoolConfig{Conns: 1, Seed: 31})
	if _, err := holder.Identify(context.Background(), "02:7a:00:00:00:01", probe.fp); err != nil {
		t.Fatal(err)
	}

	refused := NewPool(addr, PoolConfig{Conns: 1, MaxRetries: 1, RetryBackoff: time.Millisecond, Seed: 32})
	defer refused.Close()
	_, err = refused.Identify(context.Background(), "02:7a:00:00:00:02", probe.fp)
	if err == nil {
		t.Fatal("Identify succeeded past a full server")
	}
	if msg := err.Error(); !strings.Contains(msg, "service backpressure") || !strings.Contains(msg, "connection capacity") {
		t.Errorf("err = %v, want the capacity refusal read as backpressure", err)
	}
	if st := refused.Counters(); st.Retries != 1 || st.Transport.DroppedCorrelations != 0 {
		t.Errorf("refused pool counters %+v, want 1 retry and no dropped correlation", st)
	}
	if st := srv.Counters(); st.ConnsRefused != 2 {
		t.Errorf("conns refused = %d, want 2 (both attempts)", st.ConnsRefused)
	}

	// Freeing the slot lets the refused pool through.
	holder.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := refused.Identify(context.Background(), "02:7a:00:00:00:03", probe.fp)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Identify after the slot freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
