package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/iotssp"
)

// stubIdentifier answers from memory — no sockets, no sleeps. Its
// verdict names the probe model it was sent; MACs in fail get an error
// and MACs in wrongMAC an answer for another device.
type stubIdentifier struct {
	model    map[*fingerprint.Fingerprint]int
	fail     map[string]bool
	wrongMAC map[string]bool
	issued   *atomic.Int64
}

func (s stubIdentifier) Identify(_ context.Context, mac string, fp *fingerprint.Fingerprint) (iotssp.Response, error) {
	s.issued.Add(1)
	if s.fail[mac] {
		return iotssp.Response{}, errors.New("injected failure")
	}
	if s.wrongMAC[mac] {
		mac = "02:ff:ff:ff:ff:ff"
	}
	return iotssp.Response{MAC: mac, DeviceType: fmt.Sprintf("model-%d", s.model[fp])}, nil
}

// stubReplay builds a requests-long workload over models distinct
// probes and gateways stub clients sharing one issue counter.
func stubReplay(requests, models, gateways int) (*workload, []stubIdentifier) {
	w := &workload{model: make([]int, requests), macs: make([]string, requests)}
	stub := stubIdentifier{model: map[*fingerprint.Fingerprint]int{}, fail: map[string]bool{}, wrongMAC: map[string]bool{}, issued: new(atomic.Int64)}
	for m := 0; m < models; m++ {
		fp := fingerprint.FromVectors(nil)
		w.probes = append(w.probes, fp)
		stub.model[fp] = m
	}
	for i := range w.model {
		w.model[i] = (7 * i) % models
		w.macs[i] = fmt.Sprintf("02:aa:00:00:%02x:%02x", i>>8, i&0xff)
	}
	clients := make([]stubIdentifier, gateways)
	for g := range clients {
		clients[g] = stub
	}
	return w, clients
}

// TestReplayVerdictsLandAtRequestIndex: with many gateways and
// in-flight slots racing over the cursor, every verdict is recorded at
// the index of the request that produced it.
func TestReplayVerdictsLandAtRequestIndex(t *testing.T) {
	w, clients := stubReplay(300, 5, 3)
	ph := replay(clients, w, 4)
	if ph.lost != 0 {
		t.Fatalf("lost %d requests against an always-answering stub", ph.lost)
	}
	for i, v := range ph.verdicts {
		if want := fmt.Sprintf("model-%d", w.model[i]); v.MAC != w.macs[i] || v.DeviceType != want {
			t.Fatalf("verdict %d = %s/%s, want %s/%s", i, v.MAC, v.DeviceType, w.macs[i], want)
		}
	}
	if got := clients[0].issued.Load(); got != 300 {
		t.Errorf("issued %d requests, want 300", got)
	}
	if ph.perSec <= 0 || ph.p99 < ph.p50 {
		t.Errorf("degenerate summary: %.1f/s p50 %s p99 %s", ph.perSec, ph.p50, ph.p99)
	}
	if n := ph.mismatches(ph); n != 0 {
		t.Errorf("phase mismatches itself %d times", n)
	}
}

// TestReplayCountsLostAndContinues: a failed identify and an answer for
// the wrong device each count as lost, leave a zero verdict at their
// index, and the phase still issues every other request.
func TestReplayCountsLostAndContinues(t *testing.T) {
	w, clients := stubReplay(120, 4, 2)
	stub := clients[0]
	stub.fail[w.macs[3]], stub.fail[w.macs[77]] = true, true
	stub.wrongMAC[w.macs[40]] = true
	ph := replay(clients, w, 3)
	if ph.lost != 3 {
		t.Fatalf("lost %d, want 3", ph.lost)
	}
	if got := stub.issued.Load(); got != 120 {
		t.Errorf("issued %d requests, want all 120", got)
	}
	for i, v := range ph.verdicts {
		lost := i == 3 || i == 40 || i == 77
		if lost != (v.MAC == "") {
			t.Errorf("verdict %d = %+v (lost request: %v)", i, v, lost)
		}
	}
	clear(stub.fail)
	clear(stub.wrongMAC)
	full := replay(clients[:1], w, 1)
	full.verdicts[5].DeviceType = "other"
	if n := full.mismatches(ph); n != 4 {
		t.Errorf("mismatches = %d, want the 3 lost plus the 1 altered verdict", n)
	}
}

// TestReplayDrillsFireOnceInOrder: each drill fires exactly once, in
// slice order, from the request that crosses its threshold; a drill
// past the end never fires.
func TestReplayDrillsFireOnceInOrder(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		w, clients := stubReplay(60, 3, 1)
		var fired []int
		var issuedAt []int64
		record := func(k int) func() {
			return func() {
				fired = append(fired, k)
				issuedAt = append(issuedAt, clients[0].issued.Load())
			}
		}
		replay(clients, w, 1,
			drill{after: 0, fn: record(0)},
			drill{after: 5, fn: record(1)},
			drill{after: 5, fn: record(2)},
			drill{after: 40, fn: record(3)},
			drill{after: 60, fn: record(4)},
		)
		if fmt.Sprint(fired) != "[0 1 2 3]" {
			t.Fatalf("fired %v, want [0 1 2 3]", fired)
		}
		// With one slot the drill runs once exactly `after` requests were
		// issued, before the crossing request itself.
		if fmt.Sprint(issuedAt) != "[0 5 5 40]" {
			t.Errorf("requests issued when each drill fired = %v, want [0 5 5 40]", issuedAt)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		w, clients := stubReplay(400, 3, 4)
		var mu sync.Mutex
		var fired []int
		record := func(k int) func() {
			return func() {
				mu.Lock()
				fired = append(fired, k)
				mu.Unlock()
			}
		}
		ph := replay(clients, w, 8,
			drill{after: 10, fn: record(0)},
			drill{after: 10, fn: record(1)},
			drill{after: 133, fn: record(2)},
			drill{after: 399, fn: record(3)},
		)
		if fmt.Sprint(fired) != "[0 1 2 3]" {
			t.Fatalf("fired %v, want [0 1 2 3]", fired)
		}
		if ph.lost != 0 {
			t.Errorf("lost %d", ph.lost)
		}
	})
}
