package iotssp

import (
	"bufio"
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/features"
	"repro/internal/fingerprint"
)

// TestServiceKeysAreSeeded: an in-process caller keys a fingerprint by
// the bytes a frame carries for it, and two Services key the same
// bytes differently — no client can precompute another print's key.
func TestServiceKeysAreSeeded(t *testing.T) {
	svc, ds := testService(t)
	other := NewService(svc.Bank(), ServiceConfig{})
	fp := ds["Aria"][0]
	matrix := fingerprint.AppendBinary(nil, fp)
	if svc.key(fp) != svc.keyBytes(matrix) {
		t.Error("a decoded fingerprint and its frame bytes key differently")
	}
	if svc.keyBytes(matrix) == other.keyBytes(matrix) {
		t.Error("two services key the same matrix alike: the cache key is not seeded")
	}
}

// TestVerdictFrameRoundTrip: every field of a verdict survives the
// frame, and a repeat verdict decodes without allocating.
func TestVerdictFrameRoundTrip(t *testing.T) {
	want := Response{
		Line: 300, Known: true, DeviceType: "EdimaxCam", Stage: "discrimination", Level: "restricted",
		PermittedEndpoints: []string{"203.0.113.7", "203.0.113.8"}, Vulnerabilities: []string{"CVE-1"},
		NotifyUser: true, UncontrolledChannels: []string{"Bluetooth"},
	}
	frame := AppendVerdictFrame(nil, &want)
	refusal := AppendVerdictFrame(nil, &Response{Line: 1 << 40, Error: "overloaded", Retryable: true})
	stream := bytes.NewReader(nil)
	br := bufio.NewReader(stream)
	read := NewVerdictReader()
	for _, tc := range []struct {
		frame []byte
		want  Response
	}{{frame, want}, {refusal, Response{Line: 1 << 40, Error: "overloaded", Retryable: true}}} {
		stream.Reset(tc.frame)
		br.Reset(stream)
		got, n, err := read(br)
		if err != nil || n != len(tc.frame) {
			t.Fatalf("read = %v after %d of %d bytes", err, n, len(tc.frame))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("round trip\n got %+v\nwant %+v", got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		stream.Reset(frame)
		br.Reset(stream)
		read(br)
	}); n != 0 {
		t.Errorf("repeat verdict decode: %.0f allocations, want 0", n)
	}
}

// FuzzVerdictFrame feeds hostile bytes to the server's message reader
// (frames and JSON lines, frame bodies checked as the read pump checks
// them) and to the Pool's verdict decoder. Both must answer with
// errors, never panic, and allocate in proportion to the bytes they
// were sent — never to a length a header merely claims.
func FuzzVerdictFrame(f *testing.F) {
	fp := fingerprint.FromVectors([]features.Vector{{1, 2, 3}, {-4}})
	f.Add(AppendIdentifyFrame(nil, "02:00:00:00:00:01", fp))
	f.Add(AppendVerdictFrame(nil, &Response{Line: 7, Known: true, DeviceType: "Aria", Stage: "classification", Level: "trusted",
		Vulnerabilities: []string{"CVE-1"}}))
	f.Add([]byte{frameIdentify, 0, 0x10, 0, 0})                        // claims a 1 MB body, sends none
	f.Add([]byte{frameVerdict, 0, 0, 0, 7, 1, 0, 1, 1, 0, 0, 0xff})    // list count past the body
	f.Add([]byte("{\"op\":\"hello\"}\n\x01\x00\x00\x00\x03\x01x\x80")) // a hello, then a truncated matrix
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mr := &msgReader{br: bufio.NewReaderSize(bytes.NewReader(data), 4096)}
		for {
			msg, frame, err := mr.next()
			if err != nil {
				break
			}
			if frame {
				if _, matrix, err := splitIdentify(msg); err == nil {
					if _, err := fingerprint.DecodeBinary(matrix); err != nil {
						t.Fatalf("a checked matrix failed to decode: %v", err)
					}
				}
			}
		}
		read := NewVerdictReader()
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			if _, _, err := read(br); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		// Two 4 KB read buffers, scratch and decoded values that grow
		// with the input, and the intern tables' fixed overhead.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(data)); grew > limit {
			t.Fatalf("%d input bytes allocated %d bytes (limit %d)", len(data), grew, limit)
		}
	})
}
