package gateway

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/iotssp"
)

// TestPoolWireDictVerdictsBitEqual: the gateway pool's dictionary
// wire (with and without framed flate) yields responses bit-equal to
// the plain wire on a recurring fleet workload, with the dictionary
// carrying the repeats.
func TestPoolWireDictVerdictsBitEqual(t *testing.T) {
	names := []string{"Aria", "HueBridge", "EdimaxCam", "WeMoSwitch"}
	svc := trainedService(t, names...)
	addr := startTestServer(t, svc)

	probes := make(map[string]*devicesProbe)
	for _, name := range names {
		probes[name] = probeFor(t, name)
	}

	plain := NewPool(addr, PoolConfig{Conns: 2, Seed: 41})
	defer plain.Close()
	const rounds = 6
	for _, wire := range []iotssp.WireMode{iotssp.WireDict, iotssp.WireDictFlate} {
		t.Run(wire.String(), func(t *testing.T) {
			pool := NewPool(addr, PoolConfig{Conns: 2, Seed: 43, Wire: wire})
			defer pool.Close()
			for round := 0; round < rounds; round++ {
				for name, probe := range probes {
					mac := fmt.Sprintf("02:77:%02x:00:00:%02x", len(name), round)
					got, err := pool.Identify(context.Background(), mac, probe.fp)
					if err != nil {
						t.Fatalf("dict identify %s: %v", name, err)
					}
					want, err := plain.Identify(context.Background(), mac, probe.fp)
					if err != nil {
						t.Fatalf("plain identify %s: %v", name, err)
					}
					// The correlation line is per-connection bookkeeping, not
					// verdict content (the dict hello consumes a line).
					got.Line, want.Line = 0, 0
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s round %d: dict response %+v, want %+v", name, round, got, want)
					}
				}
			}
			st := pool.Counters().Transport
			if st.DictHits == 0 {
				t.Fatalf("pool dictionary never engaged: %+v", st)
			}
			pst := plain.Counters().Transport
			dictB := st.BytesWritten - st.HandshakeBytesWritten
			plainB := pst.BytesWritten - pst.HandshakeBytesWritten
			if dictB*2 >= plainB {
				t.Errorf("dict pool wrote %d steady bytes vs plain %d, want < half", dictB, plainB)
			}
		})
	}
}

// TestPoolStrictHello: a dict-asking pool refuses a service whose hello
// reply does not match this build — another protocol version, no mode,
// no dictionary grant — and Identify's error names the mismatch
// instead of the pool downgrading to the plain wire.
func TestPoolStrictHello(t *testing.T) {
	probe := probeFor(t, "Aria")
	for _, tc := range []struct{ name, reply, mention string }{
		{"v3", `{"op":"hello","line":1,"mode":"verdict","v":3,"dict":512}`, "protocol v3"},
		{"no-mode", `{"op":"hello","line":1,"v":4,"dict":512}`, "mode"},
		{"no-dict", `{"op":"hello","line":1,"mode":"verdict","v":4}`, "dictionary"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
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
							conn.Write([]byte(tc.reply + "\n"))
							io.Copy(io.Discard, br)
						}
					}()
				}
			}()
			pool := NewPool(lis.Addr().String(), PoolConfig{
				Conns: 1, Seed: 47, Wire: iotssp.WireDict, Timeout: 200 * time.Millisecond, RetryBackoff: time.Millisecond,
			})
			defer pool.Close()
			_, err = pool.Identify(context.Background(), "02:77:aa:00:00:01", probe.fp)
			if err == nil || !strings.Contains(err.Error(), tc.mention) {
				t.Fatalf("identify through a mismatched hello: err %v, want one naming %q", err, tc.mention)
			}
			if st := pool.Counters().Transport; st.DictHits+st.DictMisses != 0 {
				t.Errorf("dictionary engaged past a refused hello: %+v", st)
			}
		})
	}
}
