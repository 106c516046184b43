package iotssp

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/fingerprint"
	"repro/internal/ml"
)

// shardFixture is a small 2-shard bank trained once per test binary,
// with held-out probes and a spare type for enrolment tests.
type shardFixture struct {
	cfg     core.Config
	sharded *core.ShardedBank
	probes  []*fingerprint.Fingerprint
	// spareName/sparePrints is an untrained type for Enroll tests.
	spareName   string
	sparePrints []*fingerprint.Fingerprint
}

var (
	shardFixOnce sync.Once
	shardFix     *shardFixture
)

// getShardFixture trains the shared 2-shard fixture.
func getShardFixture(t testing.TB) *shardFixture {
	t.Helper()
	shardFixOnce.Do(func() {
		env := devices.DefaultEnv()
		names := []string{"Aria", "EdimaxCam", "HueBridge", "WeMoSwitch", "Withings"}
		train := make(map[string][]*fingerprint.Fingerprint)
		fix := &shardFixture{spareName: "MAXGateway"}
		for _, name := range names {
			traces, err := devices.GenerateRuns(name, env, 7, 12)
			if err != nil {
				t.Fatal(err)
			}
			var prints []*fingerprint.Fingerprint
			for _, tr := range traces {
				prints = append(prints, tr.Fingerprint())
			}
			train[name] = prints[:5]
			fix.probes = append(fix.probes, prints[5:]...)
		}
		spares, err := devices.GenerateRuns(fix.spareName, env, 5, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range spares {
			fix.sparePrints = append(fix.sparePrints, tr.Fingerprint())
		}
		fix.cfg = core.Default()
		fix.cfg.Forest = ml.ForestConfig{Trees: 15}
		fix.cfg.Seed = 5
		sharded, err := core.TrainSharded(fix.cfg, 2, train)
		if err != nil {
			t.Fatal(err)
		}
		fix.sharded = sharded
		shardFix = fix
	})
	if shardFix == nil {
		t.Fatal("shard fixture failed to build")
	}
	return shardFix
}

// freshShardedBank retrains an identical 2-shard bank (same seed, same
// partition) whose shards can be mutated or served without touching the
// shared fixture.
func freshShardedBank(t testing.TB) *core.ShardedBank {
	t.Helper()
	fix := getShardFixture(t)
	env := devices.DefaultEnv()
	train := make(map[string][]*fingerprint.Fingerprint)
	for _, name := range fix.sharded.Types() {
		traces, err := devices.GenerateRuns(name, env, 7, 12)
		if err != nil {
			t.Fatal(err)
		}
		var prints []*fingerprint.Fingerprint
		for _, tr := range traces {
			prints = append(prints, tr.Fingerprint())
		}
		train[name] = prints[:5]
	}
	sharded, err := core.TrainSharded(fix.cfg, 2, train)
	if err != nil {
		t.Fatal(err)
	}
	return sharded
}

// startShardReplica serves bank as a restartable shard backend.
func startShardReplica(t *testing.T, bank *core.Bank) *Replica {
	t.Helper()
	r := NewShardReplica(bank, ServerConfig{})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestRemoteShardMirrorsLocalShard(t *testing.T) {
	fix := getShardFixture(t)
	local := fix.sharded.Shard(1).(*core.Bank)
	replica := startShardReplica(t, local)
	remote := NewRemoteShard(replica.Addr(), RemoteShardConfig{Seed: 7})
	defer remote.Close()

	if got, want := remote.Types(), local.Types(); !reflect.DeepEqual(got, want) {
		t.Fatalf("remote Types = %v, want %v", got, want)
	}
	if got, want := remote.Version(), local.Version(); got != want {
		t.Fatalf("remote Version = %d, want %d", got, want)
	}
	gotAccepts := remote.ClassifyBatch(fix.probes, 0)
	wantAccepts := local.ClassifyBatch(fix.probes, 0)
	if !reflect.DeepEqual(gotAccepts, wantAccepts) {
		t.Fatalf("remote ClassifyBatch = %v, want %v", gotAccepts, wantAccepts)
	}
	types := local.Types()
	for i, fp := range fix.probes {
		gotBest, gotScores := remote.Discriminate(fp, types)
		wantBest, wantScores := local.Discriminate(fp, types)
		if gotBest != wantBest || !reflect.DeepEqual(gotScores, wantScores) {
			t.Fatalf("probe %d: remote Discriminate = (%q, %v), want (%q, %v)",
				i, gotBest, gotScores, wantBest, wantScores)
		}
	}
	if st := remote.Counters(); st.Failures != 0 || st.Transport.Dials == 0 {
		t.Errorf("remote shard stats: %+v", st)
	}
}

func TestMixedShardedBankBitEqualToLocal(t *testing.T) {
	fix := getShardFixture(t)
	served := freshShardedBank(t)
	replica := startShardReplica(t, served.Shard(1).(*core.Bank))
	remote := NewRemoteShard(replica.Addr(), RemoteShardConfig{Seed: 9})
	defer remote.Close()

	mixed, err := core.NewShardedBankFrom(fix.cfg, []core.Shard{served.Shard(0), remote})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mixed.Types(), fix.sharded.Types(); !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed bank type order %v, want %v", got, want)
	}

	wantRes := fix.sharded.IdentifyBatch(fix.probes, 0)
	gotRes := mixed.IdentifyBatch(fix.probes, 0)
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("mixed bank verdicts differ from all-local:\n got %+v\nwant %+v", gotRes, wantRes)
	}
	for i, fp := range fix.probes {
		if got, want := mixed.Identify(fp), fix.sharded.Identify(fp); !reflect.DeepEqual(got, want) {
			t.Fatalf("probe %d: mixed Identify = %+v, want %+v", i, got, want)
		}
	}
}

func TestRemoteShardEnrollBumpsVersion(t *testing.T) {
	fix := getShardFixture(t)
	served := freshShardedBank(t)
	local := served.Shard(1).(*core.Bank)
	replica := startShardReplica(t, local)
	remote := NewRemoteShard(replica.Addr(), RemoteShardConfig{Seed: 13})
	defer remote.Close()

	before := remote.Types()
	v0 := local.Version()
	if err := remote.Enroll(fix.spareName, fix.sparePrints); err != nil {
		t.Fatalf("remote Enroll: %v", err)
	}
	if got := remote.Version(); got != v0+1 {
		t.Fatalf("cached version after enroll = %d, want %d", got, v0+1)
	}
	after := remote.Types()
	if len(after) != len(before)+1 || after[len(after)-1] != fix.spareName {
		t.Fatalf("types after enroll = %v (before %v)", after, before)
	}
	// Duplicate enrolment must surface the shard's error, not retry
	// forever.
	start := time.Now()
	if err := remote.Enroll(fix.spareName, fix.sparePrints); err == nil {
		t.Fatal("duplicate remote enroll succeeded")
	} else if !strings.Contains(err.Error(), "already enrolled") {
		t.Fatalf("duplicate enroll error = %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("non-retryable enroll error took %s (retried?)", time.Since(start))
	}
}

func TestRemoteShardSurvivesShardRestart(t *testing.T) {
	fix := getShardFixture(t)
	served := freshShardedBank(t)
	local := served.Shard(0).(*core.Bank)
	replica := startShardReplica(t, local)
	remote := NewRemoteShard(replica.Addr(), RemoteShardConfig{
		Seed:         17,
		RetryBackoff: 2 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
	})
	defer remote.Close()

	want := local.ClassifyBatch(fix.probes, 0)
	if got := remote.ClassifyBatch(fix.probes, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("pre-restart classify mismatch")
	}

	if err := replica.Stop(); err != nil {
		t.Fatal(err)
	}
	// While the shard is down, kick off a classify that must ride the
	// retry loop across the revival.
	type res struct{ accepts [][]string }
	done := make(chan res, 1)
	go func() {
		done <- res{accepts: remote.ClassifyBatch(fix.probes, 0)}
	}()
	time.Sleep(30 * time.Millisecond)
	if err := replica.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if !reflect.DeepEqual(r.accepts, want) {
			t.Fatalf("post-restart classify = %v, want %v", r.accepts, want)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("classify never recovered after shard restart")
	}
	if st := remote.Counters(); st.Retries == 0 || st.Transport.Dials < 2 {
		t.Errorf("restart left no retry/redial trace: %+v", st)
	}
}

func TestOldClientAgainstShardServerGetsRetryableError(t *testing.T) {
	fix := getShardFixture(t)
	replica := startShardReplica(t, freshShardedBank(t).Shard(0).(*core.Bank))

	client := newTestClient(replica.Addr())
	defer client.Close()
	resp, err := client.Identify(context.Background(), "02:aa:00:00:00:01", fix.probes[0])
	if err == nil {
		t.Fatal("v1 identify against a shard server succeeded")
	}
	if !resp.Retryable {
		t.Fatalf("v1 identify refusal not retryable: %+v (err %v)", resp, err)
	}
	if !strings.Contains(resp.Error, "shard") {
		t.Fatalf("refusal does not name the mode: %q", resp.Error)
	}
	if resp.Line != 1 {
		t.Fatalf("refusal lost the line echo: %+v", resp)
	}
}

func TestRemoteShardAgainstVerdictServerFailsCleanly(t *testing.T) {
	fix := getShardFixture(t)
	svc, _ := testService(t)
	srv := NewServer(svc, ServerConfig{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })

	remote := NewRemoteShard(lis.Addr().String(), RemoteShardConfig{
		Seed:         19,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
	})
	defer remote.Close()
	if err := remote.Enroll("Nope", fix.sparePrints); err == nil {
		t.Fatal("enroll against a verdict server succeeded")
	} else if !strings.Contains(err.Error(), "not a shard server") {
		t.Fatalf("mode mismatch not surfaced: %v", err)
	}
	if got := remote.ClassifyBatch(fix.probes[:1], 0); got[0] != nil {
		t.Fatalf("classify against verdict server returned accepts: %v", got)
	}
}

// rawLine sends one raw JSON line and decodes the first reply into a
// generic map.
func rawLine(t *testing.T, addr string, line string) map[string]any {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
	reply, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(reply, &m); err != nil {
		t.Fatalf("reply %q: %v", reply, err)
	}
	return m
}

func TestHelloNegotiationBothModes(t *testing.T) {
	getShardFixture(t)
	replica := startShardReplica(t, freshShardedBank(t).Shard(0).(*core.Bank))
	if m := rawLine(t, replica.Addr(), `{"op":"hello"}`); m["mode"] != ModeShard || m["v"] != float64(ProtocolVersion) {
		t.Fatalf("shard hello = %v", m)
	}

	svc, _ := testService(t)
	srv := NewServer(svc, ServerConfig{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	if m := rawLine(t, lis.Addr().String(), `{"op":"hello"}`); m["mode"] != ModeVerdict || m["v"] != float64(ProtocolVersion) {
		t.Fatalf("verdict hello = %v", m)
	}
	// Shard verbs against the verdict endpoint fail non-retryably: the
	// client dialed the wrong kind of server.
	m := rawLine(t, lis.Addr().String(), `{"op":"classify","batch":[]}`)
	if m["error"] == nil || m["retryable"] == true {
		t.Fatalf("shard op against verdict server = %v", m)
	}
	// Malformed shard lines keep the connection alive and are not
	// retryable.
	m = rawLine(t, replica.Addr(), `{"op":"classify","batch":["%%%"]}`)
	if m["error"] == nil || m["retryable"] == true {
		t.Fatalf("corrupt classify batch = %v", m)
	}
}

// TestShardServerErrorPaths covers the malformed-request and
// mode-introspection corners of the shard protocol.
func TestShardServerErrorPaths(t *testing.T) {
	getShardFixture(t)
	bank := freshShardedBank(t).Shard(0).(*core.Bank)
	replica := startShardReplica(t, bank)
	addr := replica.Addr()

	if m := rawLine(t, addr, `{"op":"warp"}`); m["error"] == nil || m["retryable"] == true {
		t.Errorf("unknown op = %v", m)
	}
	if m := rawLine(t, addr, `{"op":"enroll","type":"","prints":[]}`); m["error"] == nil {
		t.Errorf("empty enroll type = %v", m)
	}
	if m := rawLine(t, addr, `{"op":"enroll","type":"X","prints":["%%%"]}`); m["error"] == nil {
		t.Errorf("corrupt enroll print = %v", m)
	}
	if m := rawLine(t, addr, `{"op":"discriminate","fingerprint":"%%%"}`); m["error"] == nil {
		t.Errorf("corrupt discriminate fingerprint = %v", m)
	}
	if m := rawLine(t, addr, `this is not json`); m["error"] == nil {
		t.Errorf("malformed line = %v", m)
	}
	if m := rawLine(t, addr, `{"op":"meta"}`); m["error"] != nil {
		t.Errorf("meta after malformed lines should work (connection stays alive): %v", m)
	}

	remote := NewRemoteShard(addr, RemoteShardConfig{Seed: 29})
	defer remote.Close()
	if remote.Addr() != addr {
		t.Errorf("remote Addr = %q, want %q", remote.Addr(), addr)
	}
	// Discriminate among candidates the shard does not own: scores for
	// unknown names are simply absent.
	if best, scores := remote.Discriminate(shardFix.probes[0], []string{"NotAType"}); best != "" && len(scores) != 0 {
		t.Errorf("foreign candidate discriminate = (%q, %v)", best, scores)
	}

	// Mode introspection.
	if srv := NewShardServer(bank, ServerConfig{}); srv.ShardBank() != bank {
		t.Error("ShardBank did not return the hosted shard")
	} else {
		srv.Close()
	}
	svc, _ := testService(t)
	srv := NewServer(svc, ServerConfig{})
	if srv.ShardBank() != nil {
		t.Error("verdict server claims a shard bank")
	}
	srv.Close()
}

// TestClassifyEncodings: classify batches travel delta-packed (or
// dictionary-coded, on a dictionary connection); an empty or unknown
// encoding is refused non-retryably.
func TestClassifyEncodings(t *testing.T) {
	fix := getShardFixture(t)
	replica := startShardReplica(t, freshShardedBank(t).Shard(0).(*core.Bank))

	packed, err := fingerprint.PackDelta(fix.probes[0])
	if err != nil {
		t.Fatal(err)
	}
	if m := rawLine(t, replica.Addr(), `{"op":"classify","enc":"delta","batch":["`+packed+`"]}`); m["error"] != nil {
		t.Fatalf("delta batch = %v", m)
	}
	for _, enc := range []string{"", "zstd"} {
		m := rawLine(t, replica.Addr(), `{"op":"classify","enc":"`+enc+`","batch":["`+packed+`"]}`)
		if m["error"] == nil || m["retryable"] == true {
			t.Fatalf("batch encoding %q = %v, want a non-retryable refusal", enc, m)
		}
	}
}

// TestDeltaStreamPushesVersion: a subscribed verdict front learns of a
// remote enrolment from the server's pushed version bump alone — its
// own request counter must not move while the cached version catches
// up, proving no classify or meta round-trip was spent.
func TestDeltaStreamPushesVersion(t *testing.T) {
	fix := getShardFixture(t)
	bank := freshShardedBank(t).Shard(0).(*core.Bank)
	replica := startShardReplica(t, bank)

	front := NewRemoteShard(replica.Addr(), RemoteShardConfig{Seed: 61})
	defer front.Close()
	// Prime the connection (the hello subscribes it on the first dial).
	if got, want := front.Types(), bank.Types(); !reflect.DeepEqual(got, want) {
		t.Fatalf("front types %v, want %v", got, want)
	}
	v0 := front.Version()
	requests0 := front.Counters().Requests

	// A second client enrolls through the server; the front must observe
	// the bump purely from the pushed delta line.
	writer := NewRemoteShard(replica.Addr(), RemoteShardConfig{Seed: 67})
	defer writer.Close()
	if err := writer.Enroll(fix.spareName, fix.sparePrints); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for front.Version() == v0 {
		if time.Now().After(deadline) {
			t.Fatalf("front never observed the pushed version bump (still %d)", v0)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := front.Version(); got != v0+1 {
		t.Fatalf("front version after push = %d, want %d", got, v0+1)
	}
	st := front.Counters()
	if st.Requests != requests0 {
		t.Fatalf("front spent %d round-trips learning of the enrolment, want 0 (delta stream)", st.Requests-requests0)
	}
	if st.DeltasReceived == 0 {
		t.Fatal("front counted no received deltas")
	}
	if st.Transport.Pushes == 0 {
		t.Fatal("transport counted no pushed lines")
	}
}

// TestShardServerRefusesStateTransferOps: the shard wire has no
// snapshot or restore verb. Both lines are answered as unknown ops,
// non-retryably, on a connection that keeps serving, and a restore
// carrying a valid snapshot leaves the hosted bank untouched.
func TestShardServerRefusesStateTransferOps(t *testing.T) {
	getShardFixture(t)
	bank := freshShardedBank(t).Shard(0).(*core.Bank)
	snap, err := bank.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := bank.Remove(bank.Types()[0]); err != nil {
		t.Fatal(err)
	}
	version, types := bank.Version(), bank.Types()
	replica := startShardReplica(t, bank)

	conn, err := net.Dial("tcp", replica.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	restore, _ := json.Marshal(map[string]any{"op": "restore", "snapshot": snap})
	lines := []string{`{"op":"snapshot"}`, string(restore), `{"op":"meta"}`}
	if _, err := conn.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	replies := make(map[float64]map[string]any, len(lines))
	for range lines {
		reply, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("connection stopped serving after %d replies: %v", len(replies), err)
		}
		var m map[string]any
		if err := json.Unmarshal(reply, &m); err != nil {
			t.Fatalf("reply %q: %v", reply, err)
		}
		replies[m["line"].(float64)] = m
	}
	for i, op := range []string{"snapshot", "restore"} {
		m := replies[float64(i+1)]
		if msg, _ := m["error"].(string); !strings.Contains(msg, `unknown shard op "`+op+`"`) || m["retryable"] == true {
			t.Errorf("%s = %v, want a non-retryable unknown-op refusal", op, m)
		}
	}
	if m := replies[3]; m["error"] != nil {
		t.Errorf("meta after the refusals = %v", m)
	}
	if bank.Version() != version || !reflect.DeepEqual(bank.Types(), types) {
		t.Errorf("bank moved to version %d types %v, want %d %v", bank.Version(), bank.Types(), version, types)
	}
}
