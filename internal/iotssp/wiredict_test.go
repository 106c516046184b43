package iotssp

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// dictRemote builds a RemoteShard with the wire compression on and
// fast retries, against addr.
func dictRemote(t *testing.T, addr string, wire WireMode) *RemoteShard {
	t.Helper()
	rs := NewRemoteShard(addr, RemoteShardConfig{
		Seed:         31,
		Wire:         wire,
		RetryBackoff: 2 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
	})
	t.Cleanup(func() { rs.Close() })
	return rs
}

// TestRemoteShardWireDictBitEqual: the dictionary-coded wire answers
// bit-equal to the plain wire and the
// local bank, while writing a fraction of the bytes on a recurring
// workload.
func TestRemoteShardWireDictBitEqual(t *testing.T) {
	fix := getShardFixture(t)
	local := fix.sharded.Shard(1).(*core.Bank)
	replica := startShardReplica(t, local)
	plain := NewRemoteShard(replica.Addr(), RemoteShardConfig{Seed: 37})
	defer plain.Close()

	const rounds = 8
	types := local.Types()
	for _, wire := range []WireMode{WireDict} {
		t.Run(wire.String(), func(t *testing.T) {
			remote := dictRemote(t, replica.Addr(), wire)
			for round := 0; round < rounds; round++ {
				got := remote.ClassifyBatch(fix.probes, 0)
				want := local.ClassifyBatch(fix.probes, 0)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: dict classify = %v, want %v", round, got, want)
				}
				if ref := plain.ClassifyBatch(fix.probes, 0); !reflect.DeepEqual(got, ref) {
					t.Fatalf("round %d: dict and plain wire disagree", round)
				}
				for i, fp := range fix.probes {
					gotBest, gotScores := remote.Discriminate(fp, types)
					wantBest, wantScores := local.Discriminate(fp, types)
					if gotBest != wantBest || !reflect.DeepEqual(gotScores, wantScores) {
						t.Fatalf("round %d probe %d: dict Discriminate = (%q, %v), want (%q, %v)",
							round, i, gotBest, gotScores, wantBest, wantScores)
					}
				}
			}
			st := remote.Counters().Transport
			if st.DictHits == 0 || st.DictMisses == 0 {
				t.Fatalf("dictionary never engaged: hits=%d misses=%d", st.DictHits, st.DictMisses)
			}
			if hitRate := float64(st.DictHits) / float64(st.DictHits+st.DictMisses); hitRate < 0.8 {
				t.Errorf("dict hit rate %.2f on a recurring workload, want >= 0.8", hitRate)
			}
			// The same workload over the plain wire costs several times the
			// bytes: each probe re-ships its full packed F matrix instead of
			// a 12-byte reference. Compare steady bytes written (handshake
			// carved out) per negotiated connection.
			pst := plain.Counters().Transport
			dictB := st.BytesWritten - st.HandshakeBytesWritten
			plainB := pst.BytesWritten - pst.HandshakeBytesWritten
			if dictB*2 >= plainB {
				t.Errorf("dict wire wrote %d steady bytes vs plain %d, want < half", dictB, plainB)
			}
		})
	}
}

// helloFake listens on loopback and answers the first line of every
// connection with reply, then reads on without answering: a peer from
// another build, as far as its hello tells.
func helloFake(t *testing.T, reply string) string {
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
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := br.ReadBytes('\n'); err == nil {
					conn.Write([]byte(reply + "\n"))
					io.Copy(io.Discard, br)
				}
			}()
		}
	}()
	return lis.Addr().String()
}

// TestRemoteShardStrictHello: a shard whose hello reply does not match
// this build — another protocol version, no mode, no dictionary grant
// for a WireDict ask — is refused at connect, so the classify fails
// open (all-reject, a counted failure, no dictionary traffic) and the
// error names the mismatch.
func TestRemoteShardStrictHello(t *testing.T) {
	fix := getShardFixture(t)
	for _, tc := range []struct{ name, reply, mention string }{
		{"v3", `{"op":"hello","line":1,"mode":"shard","v":3,"dict":512}`, "protocol v3"},
		{"no-mode", `{"op":"hello","line":1,"v":4,"dict":512}`, "mode"},
		{"no-dict", `{"op":"hello","line":1,"mode":"shard","v":4}`, "dictionary"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			remote := NewRemoteShard(helloFake(t, tc.reply), RemoteShardConfig{
				Seed:          53,
				Wire:          WireDict,
				Timeout:       200 * time.Millisecond,
				EnrollTimeout: 200 * time.Millisecond,
				MaxRetries:    2,
				RetryBackoff:  time.Millisecond,
				MaxBackoff:    5 * time.Millisecond,
			})
			defer remote.Close()
			if got := remote.ClassifyBatch(fix.probes, 0); !reflect.DeepEqual(got, make([][]string, len(fix.probes))) {
				t.Fatalf("classify through a mismatched hello = %v, want all-reject", got)
			}
			st := remote.Counters()
			if st.Failures != 1 || st.Transport.DictHits+st.Transport.DictMisses != 0 {
				t.Errorf("failures %d, dict hits %d misses %d; want 1, 0, 0",
					st.Failures, st.Transport.DictHits, st.Transport.DictMisses)
			}
			if _, err := remote.Snapshot(); err == nil || !strings.Contains(err.Error(), tc.mention) {
				t.Errorf("snapshot error %v does not name the mismatch (%q)", err, tc.mention)
			}
		})
	}
}

// TestRemoteShardWireDictReconnectAndRestore: a shard restart resets
// both ends' dictionaries coherently (the classify that rides the
// retries across the revival stays bit-equal and the fresh connections
// re-seed the dictionary), and Snapshot/Restore work over the dict
// connection with the version cache following the restore's rewind.
func TestRemoteShardWireDictReconnectAndRestore(t *testing.T) {
	fix := getShardFixture(t)
	served := freshShardedBank(t)
	local := served.Shard(0).(*core.Bank)
	replica := startShardReplica(t, local)
	remote := dictRemote(t, replica.Addr(), WireDict)

	want := local.ClassifyBatch(fix.probes, 0)
	if got := remote.ClassifyBatch(fix.probes, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("pre-restart dict classify mismatch")
	}
	seeded := remote.Counters().Transport.DictMisses

	if err := replica.Stop(); err != nil {
		t.Fatal(err)
	}
	done := make(chan [][]string, 1)
	go func() { done <- remote.ClassifyBatch(fix.probes, 0) }()
	time.Sleep(30 * time.Millisecond)
	if err := replica.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-restart dict classify = %v, want %v", got, want)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("dict classify never recovered after shard restart")
	}
	st := remote.Counters().Transport
	if st.Dials < 2 {
		t.Errorf("restart left no redial trace: %+v", st)
	}
	if st.DictMisses <= seeded {
		t.Errorf("fresh connection did not re-seed the dictionary: misses %d -> %d", seeded, st.DictMisses)
	}

	// Snapshot, mutate, restore: the dict connection carries the state
	// transfer and the version cache follows the authoritative rewind.
	snap, err := remote.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	v0 := remote.Version()
	if err := remote.Enroll(fix.spareName, fix.sparePrints); err != nil {
		t.Fatal(err)
	}
	if got := remote.Version(); got != v0+1 {
		t.Fatalf("version after enroll = %d, want %d", got, v0+1)
	}
	if err := remote.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := remote.Version(); got != v0 {
		t.Fatalf("version after restore = %d, want the rewound %d", got, v0)
	}
	if got := remote.ClassifyBatch(fix.probes, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("post-restore dict classify mismatch")
	}
}

// TestShardServerStaleDictRefSevers: a dictionary reference the server
// never defined is a coherence failure — the reply is a non-retryable
// error and the connection is severed, forcing both ends onto fresh
// (empty, coherent) dictionaries.
func TestShardServerStaleDictRefSevers(t *testing.T) {
	getShardFixture(t)
	replica := startShardReplica(t, freshShardedBank(t).Shard(0).(*core.Bank))

	conn, err := net.Dial("tcp", replica.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)

	if _, err := conn.Write([]byte(`{"op":"hello","dict":64}` + "\n")); err != nil {
		t.Fatal(err)
	}
	helloLine, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var hello shardResponse
	if err := json.Unmarshal(helloLine, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Dict != 64 {
		t.Fatalf("hello granted dict %d, want 64: %s", hello.Dict, helloLine)
	}

	// An 'R' reference to a hash this connection never inserted — the
	// shape of a reference coined against a previous incarnation's
	// dictionary.
	stale := "R" + base64.RawURLEncoding.EncodeToString([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04})
	req, _ := json.Marshal(shardRequest{Op: OpClassify, Batch: []string{stale}, Enc: DictEncoding})
	if _, err := conn.Write(append(req, '\n')); err != nil {
		t.Fatal(err)
	}
	replyLine, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var reply shardResponse
	if err := json.Unmarshal(replyLine, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Error == "" || reply.Retryable {
		t.Fatalf("stale dict ref not rejected non-retryably: %s", replyLine)
	}
	// The connection must be severed after the error reply: the next
	// read hits EOF, not another reply.
	if extra, err := br.ReadBytes('\n'); err == nil {
		t.Fatalf("connection stayed alive after a dictionary desync: read %q", extra)
	}
}
