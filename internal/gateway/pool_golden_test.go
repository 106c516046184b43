package gateway

import (
	"bufio"
	"context"
	"io"
	"net"
	"testing"

	"repro/internal/features"
	"repro/internal/fingerprint"
)

// goldenFingerprint is a small fixed F matrix: two distinct packet
// columns with mixed-sign feature values.
func goldenFingerprint() *fingerprint.Fingerprint {
	var a, b features.Vector
	for i := range a {
		a[i] = int32(i % 3)
		b[i] = int32(2*i - 5)
	}
	return fingerprint.FromVectors([]features.Vector{a, b})
}

// TestPoolIdentifyLineGolden pins the exact bytes of a Pool identify
// line: no handshake precedes it, and the fingerprint travels as a
// packed report.
func TestPoolIdentifyLineGolden(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	lines := make(chan string, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		line, err := bufio.NewReader(conn).ReadString('\n')
		lines <- line
		if err != nil {
			return
		}
		io.WriteString(conn, `{"mac":"02:00:00:00:00:01","line":1,"known":false,"stage":"none","level":"strict"}`+"\n")
	}()

	pool := NewPool(lis.Addr().String(), PoolConfig{Conns: 1, Seed: 1, MaxRetries: 1})
	defer pool.Close()
	resp, err := pool.Identify(context.Background(), "02:00:00:00:00:01", goldenFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Level != "strict" || resp.Line != 1 {
		t.Fatalf("reply decoded as %+v", resp)
	}
	const want = `{"fingerprint":{"mac":"02:00:00:00:00:01","packed":"AAIEAAIEAAIEAAIEAAIEAAIEAAIEAAIJBQECBgoOEhYaHiImKi4yNjo+QkZKTg=="}}` + "\n"
	if got := <-lines; got != want {
		t.Errorf("identify line\n got %q\nwant %q", got, want)
	}
}
