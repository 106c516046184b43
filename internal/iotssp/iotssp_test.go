package iotssp

import (
	"bufio"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/enforce"
	"repro/internal/fingerprint"
	"repro/internal/ml"
	"repro/internal/vulndb"
)

// testService trains a small bank on a few device-types and wires the
// seeded vulnerability repository.
func testService(t *testing.T) (*Service, devices.Dataset) {
	t.Helper()
	env := devices.DefaultEnv()
	// A reasonably diverse bank: classifiers need negative variety to
	// reject lookalike types (TestHandleUnknownDevice).
	names := []string{
		"Aria", "HueBridge", "EdimaxCam", "SmarterCoffee",
		"Withings", "MAXGateway", "WeMoSwitch", "Lightify",
	}
	train := make(map[string][]*fingerprint.Fingerprint)
	ds := make(devices.Dataset)
	for _, name := range names {
		traces, err := devices.GenerateRuns(name, env, 5, 12)
		if err != nil {
			t.Fatal(err)
		}
		var prints []*fingerprint.Fingerprint
		for _, tr := range traces {
			prints = append(prints, tr.Fingerprint())
		}
		train[name] = prints[:8]
		ds[name] = prints[8:]
	}
	cfg := core.Default()
	cfg.Forest = ml.ForestConfig{Trees: 25}
	cfg.Seed = 3
	bank, err := core.Train(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	endpoints := map[string][]string{
		"EdimaxCam":     {devices.CloudIP("relay.edimax.example.com").String()},
		"SmarterCoffee": {},
	}
	return NewService(bank, ServiceConfig{DB: vulndb.Seeded(), Endpoints: endpoints}), ds
}

func TestHandleIdentifiesAndAssignsLevels(t *testing.T) {
	svc, ds := testService(t)
	tests := []struct {
		typ       string
		wantLevel string
	}{
		{"Aria", "trusted"},
		{"HueBridge", "trusted"},
		{"EdimaxCam", "restricted"},
		{"SmarterCoffee", "restricted"},
	}
	for _, tt := range tests {
		t.Run(tt.typ, func(t *testing.T) {
			resp := svc.Identify("02:00:00:00:00:77", ds[tt.typ][0])
			if resp.Error != "" {
				t.Fatalf("Identify error: %s", resp.Error)
			}
			if !resp.Known || resp.DeviceType != tt.typ {
				t.Fatalf("identified as %q (known=%v), want %q", resp.DeviceType, resp.Known, tt.typ)
			}
			if resp.Level != tt.wantLevel {
				t.Errorf("level = %s, want %s", resp.Level, tt.wantLevel)
			}
			if resp.MAC != "02:00:00:00:00:77" {
				t.Errorf("MAC echo = %q", resp.MAC)
			}
			if tt.wantLevel == "restricted" {
				if len(resp.Vulnerabilities) == 0 {
					t.Error("restricted verdict without advisory IDs")
				}
			}
		})
	}
}

func TestHandleUnknownDevice(t *testing.T) {
	svc, _ := testService(t)
	// An out-of-catalog behaviour: a D-LinkCam was never enrolled.
	traces, err := devices.GenerateRuns("D-LinkCam", devices.DefaultEnv(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp := svc.Identify("02:00:00:00:00:88", traces[0].Fingerprint())
	if resp.Error != "" {
		t.Fatalf("Identify error: %s", resp.Error)
	}
	if resp.Known {
		t.Fatalf("unenrolled type identified as %q", resp.DeviceType)
	}
	if resp.Level != enforce.Strict.String() {
		t.Errorf("unknown device level = %s, want strict", resp.Level)
	}
}

// TestHandleMalformedFingerprint: a frame whose matrix holds a partial
// packet column (3 values, not 23) is answered with a non-retryable
// error, and the bank never sees it.
func TestHandleMalformedFingerprint(t *testing.T) {
	svc, _ := testService(t)
	srv, addr := startServer(t, svc, ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(rawIdentifyFrame("x", []byte{2, 4, 6})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp := readReply(t, bufio.NewReader(conn))
	if resp.Error == "" || resp.Retryable || resp.Line != 1 {
		t.Errorf("malformed fingerprint answered %+v", resp)
	}
	if st := srv.Counters(); st.Malformed != 1 || st.Requests != 0 {
		t.Errorf("malformed=%d requests=%d, want 1 and 0", st.Malformed, st.Requests)
	}
}

func TestParseLevel(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want enforce.IsolationLevel
	}{
		{"strict", enforce.Strict},
		{"restricted", enforce.Restricted},
		{"trusted", enforce.Trusted},
	} {
		got, err := ParseLevel(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParseLevel(%q) = %v, %v", tt.in, got, err)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Error("ParseLevel accepted bogus level")
	}
}

func TestServerClientOverTCP(t *testing.T) {
	svc, ds := testService(t)
	srv := NewServer(svc, ServerConfig{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()

	client := newTestClient(lis.Addr().String())
	defer client.Close()

	ctx := context.Background()
	for _, typ := range []string{"Aria", "EdimaxCam"} {
		resp, err := client.Identify(ctx, "02:00:00:00:00:99", ds[typ][0])
		if err != nil {
			t.Fatalf("Identify(%s): %v", typ, err)
		}
		if resp.DeviceType != typ {
			t.Errorf("identified %q, want %q", resp.DeviceType, typ)
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	svc, ds := testService(t)
	srv := NewServer(svc, ServerConfig{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newTestClient(lis.Addr().String())
			defer client.Close()
			for j := 0; j < 5; j++ {
				resp, err := client.Identify(context.Background(), "02:00:00:00:00:01", ds["HueBridge"][j%len(ds["HueBridge"])])
				if err != nil {
					errs <- err
					return
				}
				if resp.DeviceType != "HueBridge" {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent client: %v", err)
	}
}

func TestClientReconnects(t *testing.T) {
	svc, ds := testService(t)
	srv := NewServer(svc, ServerConfig{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	client := newTestClient(lis.Addr().String())
	defer client.Close()

	if _, err := client.Identify(context.Background(), "02:00:00:00:00:01", ds["Aria"][0]); err != nil {
		t.Fatal(err)
	}
	// Kill the server; the next call must fail, and a fresh server on the
	// same address must serve a later call after redial.
	srv.Close()
	if _, err := client.Identify(context.Background(), "02:00:00:00:00:01", ds["Aria"][0]); err == nil {
		t.Fatal("Identify succeeded against a closed server")
	}

	lis2, err := net.Listen("tcp", lis.Addr().String())
	if err != nil {
		t.Skipf("cannot rebind %s: %v", lis.Addr(), err)
	}
	srv2 := NewServer(svc, ServerConfig{})
	go srv2.Serve(lis2)
	defer srv2.Close()
	if _, err := client.Identify(context.Background(), "02:00:00:00:00:01", ds["Aria"][0]); err != nil {
		t.Fatalf("Identify after reconnect: %v", err)
	}
}
