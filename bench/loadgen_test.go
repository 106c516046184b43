package main

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
)

// stubSource hands out one tiny fingerprint and accepts every answer.
type stubSource struct{ fp *fingerprint.Fingerprint }

func newStubSource() stubSource {
	return stubSource{fingerprint.FromVectors([]features.Vector{{1}})}
}

func (s stubSource) request(i uint64) (string, *fingerprint.Fingerprint) {
	return requestMAC(1, i), s.fp
}

func (s stubSource) correct(uint64, iotssp.Response) bool { return true }

// stallingIdentifier answers at once, except that every request
// arriving between from and to after its creation waits until to: a
// server that freezes for to-from.
type stallingIdentifier struct {
	t0       time.Time
	from, to time.Duration
}

func (s *stallingIdentifier) Identify(context.Context, string, *fingerprint.Fingerprint) (iotssp.Response, error) {
	if at := time.Since(s.t0); at >= s.from && at < s.to {
		time.Sleep(s.to - at)
	}
	return iotssp.Response{Known: true}, nil
}

// A 100 ms freeze at a fixed arrival rate must show up as at least
// 100 ms in the reported tail and delay about rate x 100 ms requests: a
// generator that waited for replies before sending (coordinated
// omission) would report one slow request per connection instead. The
// generator itself must not have been late, which lag reports.
func TestOpenLoopChargesAStallToEveryDelayedRequest(t *testing.T) {
	const rate = 1000
	stub := &stallingIdentifier{t0: time.Now(), from: 100 * time.Millisecond, to: 200 * time.Millisecond}
	var next atomic.Uint64
	res := openLoop([]gateway.Identifier{stub, stub}, rate, 400*time.Millisecond, newStubSource(), &next)

	if res.failed != 0 {
		t.Fatalf("%d of %d requests failed", res.failed, res.sent)
	}
	if worst := quantile(res.latMs, 1); worst < 95 {
		t.Errorf("worst latency %.1f ms, want the 100 ms stall", worst)
	}
	delayed := 0
	for _, l := range res.latMs {
		if l > sloMs {
			delayed++
		}
	}
	if delayed < 60 {
		t.Errorf("%d requests delayed beyond %d ms, want about %d (every arrival during the stall)", delayed, sloMs, rate/10-sloMs)
	}
	if miss := sloMissShare(res.latMs); miss < 0.15 {
		t.Errorf("slo miss share %.3f, want about 0.2", miss)
	}
	if lag := quantile(res.lagMs, 0.99); lag > 50 {
		t.Errorf("generator lag p99 %.1f ms: the schedule itself slipped, so the stall was not measured open-loop", lag)
	}
	if res.backlogGrowing() {
		t.Errorf("backlog reported growing after the stall cleared (in flight per quarter %v)", res.inflight)
	}
}

// serialIdentifier serves one request at a time, service long each.
type serialIdentifier struct {
	mu      sync.Mutex
	service time.Duration
}

func (s *serialIdentifier) Identify(context.Context, string, *fingerprint.Fingerprint) (iotssp.Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(s.service)
	return iotssp.Response{Known: true}, nil
}

// Arrivals at four times the service capacity build a queue that is
// still growing when the schedule ends; the phase must say so.
func TestOpenLoopReportsAGrowingBacklog(t *testing.T) {
	stub := &serialIdentifier{service: time.Millisecond}
	var next atomic.Uint64
	res := openLoop([]gateway.Identifier{stub}, 4000, 150*time.Millisecond, newStubSource(), &next)
	if !res.backlogGrowing() {
		t.Errorf("backlog not reported: in flight per quarter %v", res.inflight)
	}
}

func TestClosedLoopCountsAndRates(t *testing.T) {
	stub := &stallingIdentifier{t0: time.Now()}
	var next atomic.Uint64
	res := closedLoop([]gateway.Identifier{stub, stub}, 4, 300*time.Millisecond, newStubSource(), &next)
	if res.failed != 0 || res.ok == 0 || uint64(res.ok) != next.Load() {
		t.Fatalf("ok %d failed %d, counter %d", res.ok, res.failed, next.Load())
	}
	if len(res.rttMs) != res.ok || quantile(res.rates, 0.5) <= 0 {
		t.Errorf("%d round trips for %d verdicts, window rates %.0f", len(res.rttMs), res.ok, res.rates)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 5}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

// A stall in the last quarter of a schedule the system otherwise keeps
// up with is a slow request, not an overload.
func TestBacklogRuleIgnoresALateStall(t *testing.T) {
	r := openResult{interval: time.Second / 12000, inflight: [4]int{12, 14, 15, 3277}}
	if r.backlogGrowing() {
		t.Error("flat-then-high in-flight counts reported as a growing backlog")
	}
	r.inflight = [4]int{300, 610, 890, 1200}
	if !r.backlogGrowing() {
		t.Error("linearly growing in-flight counts not reported")
	}
}

// One window ruined by a stall must not set the reported p99.
func TestWindowedP99IgnoresOneBadWindow(t *testing.T) {
	lat := make([]float64, 3*p99Window)
	for i := range lat {
		lat[i] = 2
	}
	for i := 0; i < p99Window; i++ {
		lat[i] = 250
	}
	r := openResult{latMs: lat}
	if got := quantile(r.windowP99s(), 0.5); got != 2 {
		t.Errorf("windowed p99 %.1f, want 2", got)
	}
	if got := quantile(lat, 0.99); got != 250 {
		t.Errorf("whole-run p99 %.1f, want the stall's 250", got)
	}
}
