package gateway

import (
	"bufio"
	"context"
	"encoding/hex"
	"io"
	"net"
	"reflect"
	"testing"

	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/iotssp"
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

// Golden wire bytes. The request frame is kind 0x01, a 4-byte body
// length of 64, the 17-byte MAC and the 46 zigzag varints of
// goldenFingerprint. The verdict frame is kind 0x02, body length 54:
// line 1, flags known | notify, stage classification, level
// restricted, the device type, an empty error, and one-element
// endpoint, advisory and channel lists.
const (
	goldenRequestHex = "0100000040" + "11" + "30323a30303a30303a30303a30303a3031" +
		"00020400020400020400020400020400020400020400020905010206" +
		"0a0e12161a1e22262a2e32363a3e42464a4e"
	goldenVerdictHex = "0200000036" + "01" + "03" + "02" + "02" +
		"094564696d617843616d" + "00" +
		"01" + "0b3230332e302e3131332e37" +
		"01" + "0d4356452d323031362d30303031" +
		"01" + "09426c7565746f6f7468"
)

// goldenVerdict is what goldenVerdictHex decodes to (MAC stamped by
// the Pool, not carried).
var goldenVerdict = iotssp.Response{
	MAC: "02:00:00:00:00:01", Line: 1, Known: true, DeviceType: "EdimaxCam",
	Stage: "classification", Level: "restricted",
	PermittedEndpoints: []string{"203.0.113.7"}, Vulnerabilities: []string{"CVE-2016-0001"},
	NotifyUser: true, UncontrolledChannels: []string{"Bluetooth"},
}

// TestPoolIdentifyFrameGolden pins the exact bytes of a Pool identify
// frame (no handshake precedes it) and of the verdict frame it reads
// back. A change to either is a wire change, not a refactor.
func TestPoolIdentifyFrameGolden(t *testing.T) {
	wantReq, err := hex.DecodeString(goldenRequestHex)
	if err != nil {
		t.Fatal(err)
	}
	verdict, err := hex.DecodeString(goldenVerdictHex)
	if err != nil {
		t.Fatal(err)
	}
	if got := iotssp.AppendVerdictFrame(nil, &goldenVerdict); string(got) != string(verdict) {
		t.Errorf("verdict frame\n got %x\nwant %x", got, verdict)
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	frames := make(chan []byte, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		got := make([]byte, len(wantReq))
		_, err = io.ReadFull(bufio.NewReader(conn), got)
		frames <- got
		if err != nil {
			return
		}
		conn.Write(verdict)
	}()

	pool := NewPool(lis.Addr().String(), PoolConfig{Conns: 1, Seed: 1, MaxRetries: 1})
	defer pool.Close()
	resp, err := pool.Identify(context.Background(), "02:00:00:00:00:01", goldenFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, goldenVerdict) {
		t.Errorf("verdict decoded as %+v, want %+v", resp, goldenVerdict)
	}
	if got := <-frames; string(got) != string(wantReq) {
		t.Errorf("identify frame\n got %x\nwant %x", got, wantReq)
	}
}
