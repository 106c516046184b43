package iotssp

import (
	"bufio"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/fingerprint"
)

// TestRemoteShardWireDictLinesGolden pins the exact bytes a WireDict
// RemoteShard writes on a fresh connection: the hello and one
// dictionary-coded classify batch (a full entry and an exact
// reference to it).
func TestRemoteShardWireDictLinesGolden(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	lines := make(chan string, 2)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		replies := []string{
			`{"op":"hello","line":1,"mode":"shard","v":4,"dict":512,"version":1}`,
			`{"line":2,"accepts":[[],[]],"version":1}`,
		}
		for _, reply := range replies {
			line, err := br.ReadString('\n')
			lines <- line
			if err != nil {
				return
			}
			io.WriteString(conn, reply+"\n")
		}
	}()

	rs := NewRemoteShard(lis.Addr().String(), RemoteShardConfig{
		Conns: 1, Seed: 1, Wire: WireDict, MaxRetries: 1, Timeout: 5 * time.Second,
	})
	defer rs.Close()
	var a, b features.Vector
	for i := range a {
		a[i] = int32(i % 3)
		b[i] = int32(2*i - 5)
	}
	fp := fingerprint.FromVectors([]features.Vector{a, b})
	if got := rs.ClassifyBatch([]*fingerprint.Fingerprint{fp, fp}, 0); len(got) != 2 {
		t.Fatalf("classify returned %d entries, want 2", len(got))
	}
	for i, want := range []string{
		`{"op":"hello","dict":512}` + "\n",
		`{"op":"classify","batch":["FAAIEAAIEAAIEAAIEAAIEAAIEAAIEAAIJBwUCBAYOEBIaHB4mKCoyNDY+QEJKTA==","RamN9Z_G9FhU"],"enc":"dict"}` + "\n",
	} {
		if got := <-lines; got != want {
			t.Errorf("line %d\n got %q\nwant %q", i+1, got, want)
		}
	}
}
