package iotssp

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/fingerprint"
)

// FuzzShardOp feeds arbitrary lines through the shard server's decode
// and verb dispatch, on a connection with and without a negotiated
// dictionary. No input may panic, a hello is answered with this
// build's mode and version, and every other reply carries either an
// error or the op it answers.
func FuzzShardOp(f *testing.F) {
	fix := getShardFixture(f)
	bank := freshShardedBank(f).Shard(0).(*core.Bank)
	pristine, err := bank.Snapshot() // undoes a fuzzed remove
	if err != nil {
		f.Fatal(err)
	}
	delta, _ := fingerprint.PackDelta(fix.probes[0])
	packed, _ := fingerprint.Pack(fix.probes[0])
	for _, line := range []string{
		`{"op":"hello","dict":8,"comp":"flate"}`,
		`{"op":"meta"}`,
		`{"op":"classify","enc":"delta","batch":["` + delta + `"]}`,
		`{"op":"classify","enc":"dict","batch":["F` + packed + `"]}`,
		`{"op":"classify","batch":["` + packed + `"]}`,
		`{"op":"discriminate","fingerprint":"` + packed + `","candidates":["Aria","HueBridge"]}`,
		`{"op":"discriminate","enc":"dict","fingerprint":"R3q2-7w","candidates":["#0","=Aria"]}`,
		`{"op":"remove","type":"Aria"}`,
		`{"op":"snapshot"}`,
		`{"op":"restore","snapshot":"U05UQg=="}`,
		`{"op":"enroll","type":"X","prints":[]}`,
		`{"op":"warp"}`,
	} {
		f.Add([]byte(line), false)
		f.Add([]byte(line), true)
	}
	srv := NewShardServer(bank, ServerConfig{Workers: 1})
	defer srv.Close()
	f.Fuzz(func(t *testing.T, line []byte, dict bool) {
		var req shardRequest
		if json.Unmarshal(line, &req) != nil {
			return // the read pump answers undecodable lines itself
		}
		cw := &connWire{}
		if dict {
			cw.negotiate(&Hello{}, 8)
		}
		resp := srv.serveShardOp(req, 1, cw)
		switch {
		case req.Op == OpHello:
			if resp.Mode != ModeShard || resp.V != ProtocolVersion || resp.Error != "" {
				t.Fatalf("hello reply %+v", resp)
			}
		case resp.Error == "" && resp.Op != req.Op:
			t.Fatalf("op %q answered without an error or its op: %+v", req.Op, resp)
		}
		if req.Op == OpRemove {
			if err := bank.Restore(pristine); err != nil {
				t.Fatal(err)
			}
		}
	})
}
