package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
)

// source hands the generator request i of a run and judges its answer.
type source interface {
	request(i uint64) (mac string, fp *fingerprint.Fingerprint)
	correct(i uint64, resp iotssp.Response) bool
}

// closedResult is a closed-loop phase: each of the in-flight slots
// sends its next request only after the previous one completes.
type closedResult struct {
	ok, failed int
	elapsed    time.Duration
	rttMs      []float64
	// rates holds, per rateWindow-long window, the correct verdicts
	// completed in it as a rate. Throughput is reported as the median
	// window: the whole-phase mean moves with every scheduling hiccup of
	// a shared two-core host, the median window does not.
	rates []float64
}

const rateWindow = 50 * time.Millisecond

// closedLoop keeps inFlight requests pipelined on each client for dur.
// next is the run's shared request counter.
func closedLoop(clients []gateway.Identifier, inFlight int, dur time.Duration, src source, next *atomic.Uint64) closedResult {
	type slot struct {
		ok, failed int
		rtt        []float64
	}
	slots := make([]slot, len(clients)*inFlight)
	windows := make([]atomic.Int64, int(dur/rateWindow))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for s := range slots {
		wg.Add(1)
		go func(sl *slot, c gateway.Identifier) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				i := next.Add(1) - 1
				mac, fp := src.request(i)
				resp, err := c.Identify(context.Background(), mac, fp)
				if err != nil || !src.correct(i, resp) {
					sl.failed++
					continue
				}
				sl.ok++
				now := time.Now()
				sl.rtt = append(sl.rtt, ms(now.Sub(t0)))
				if w := int(now.Sub(start) / rateWindow); w < len(windows) {
					windows[w].Add(1)
				}
			}
		}(&slots[s], clients[s%len(clients)])
	}
	wg.Wait()
	res := closedResult{elapsed: time.Since(start)}
	for _, sl := range slots {
		res.ok += sl.ok
		res.failed += sl.failed
		res.rttMs = append(res.rttMs, sl.rtt...)
	}
	res.rates = make([]float64, len(windows))
	for w := range windows {
		res.rates[w] = float64(windows[w].Load()) / rateWindow.Seconds()
	}
	return res
}

// openResult is an open-loop phase: requests leave on a fixed schedule
// whatever the system does, and each is timed from the moment it was
// due, so a stall is charged to every request it delays.
type openResult struct {
	sent, failed int
	latMs        []float64 // by schedule slot; +Inf for a failed request
	lagMs        []float64 // how late each request actually left
	// inflight is the number of requests outstanding when each quarter
	// of the schedule had been sent; the last entry is the backlog at
	// the end.
	inflight [4]int
	interval time.Duration
}

// openLoop sends rate requests per second for dur, slot k on client
// k mod len(clients), one dispatcher per client. A request that finds
// more than a second's worth of arrivals still outstanding is shed and
// counted as failed rather than queued without bound.
func openLoop(clients []gateway.Identifier, rate int, dur time.Duration, src source, next *atomic.Uint64) openResult {
	interval := time.Second / time.Duration(rate)
	n := int(dur / interval)
	res := openResult{sent: n, latMs: make([]float64, n), lagMs: make([]float64, n), interval: interval}
	var inflight, failed atomic.Int64
	var quarters [4]atomic.Int64
	var wg, dispatchers sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for c := range clients {
		dispatchers.Add(1)
		go func(c int) {
			defer dispatchers.Done()
			for k := c; k < n; k += len(clients) {
				due := start.Add(time.Duration(k) * interval)
				now := time.Now()
				if wait := due.Sub(now); wait > 0 {
					time.Sleep(wait)
					now = time.Now()
				}
				res.lagMs[k] = ms(now.Sub(due))
				if q := 4 * (k + 1) / n; q > 4*k/n {
					quarters[q-1].Store(inflight.Load())
				}
				if inflight.Load() >= int64(rate) {
					res.latMs[k] = math.Inf(1)
					failed.Add(1)
					continue
				}
				i := next.Add(1) - 1
				inflight.Add(1)
				wg.Add(1)
				go func(k int, due time.Time) {
					defer wg.Done()
					defer inflight.Add(-1)
					mac, fp := src.request(i)
					resp, err := clients[c].Identify(context.Background(), mac, fp)
					if err != nil || !src.correct(i, resp) {
						res.latMs[k] = math.Inf(1)
						failed.Add(1)
						return
					}
					res.latMs[k] = ms(time.Since(due))
				}(k, due)
			}
		}(c)
	}
	dispatchers.Wait()
	for q := range quarters {
		res.inflight[q] = int(quarters[q].Load())
	}
	wg.Wait()
	res.failed = int(failed.Load())
	return res
}

// backlogGrowing reports an arrival rate the system did not keep up
// with: half-way through the schedule more requests were already
// outstanding than the latency limit allows at this rate (Little's law),
// and the count grew by a quarter or more from each quarter of the
// schedule to the next. A queue that holds steady reads about the same
// at every quarter and a linearly growing one reads x, 2x, 3x, 4x; a
// host stall near the end reads low, low, low and then high, which is a
// slow request, not an overload.
func (r openResult) backlogGrowing() bool {
	limit := float64(time.Duration(sloMs)*time.Millisecond) / float64(r.interval)
	if float64(r.inflight[1]) <= limit {
		return false
	}
	for q := 1; q < len(r.inflight); q++ {
		if float64(r.inflight[q]) < 1.25*float64(r.inflight[q-1]) {
			return false
		}
	}
	return true
}

// sloMissShare is the share of requests sent that failed or took
// longer than the latency limit.
func sloMissShare(latMs []float64) float64 {
	miss := 0
	for _, l := range latMs {
		if l > sloMs {
			miss++
		}
	}
	return float64(miss) / float64(len(latMs))
}

// windowP99s splits the schedule into windows of p99Window requests and
// returns each window's own p99. verdict_p99_ms is a quantile of these
// over all slices: a whole-run p99 takes its value from whichever
// one-off host stall the run happened to catch; a typical window does
// not, and queueing that persists still moves every window.
func (r openResult) windowP99s() []float64 {
	var p99s []float64
	for w := 0; w+p99Window <= len(r.latMs); w += p99Window {
		p99s = append(p99s, quantile(r.latMs[w:w+p99Window], 0.99))
	}
	return p99s
}

// rateMeter turns work completed on one goroutine into units done per
// rateWindow-long window.
type rateMeter struct {
	start time.Time
	units []float64
}

func (m *rateMeter) add(now time.Time, units int) {
	w := int(now.Sub(m.start) / rateWindow)
	for len(m.units) <= w {
		m.units = append(m.units, 0)
	}
	m.units[w] += float64(units)
}

// rates returns each window's units per second, without the last
// window, which the slice's end cut short.
func (m *rateMeter) rates() []float64 {
	out := make([]float64, max(len(m.units)-1, 1))
	for w := range out {
		out[w] = m.units[w] / rateWindow.Seconds()
	}
	return out
}

// quantile returns the nearest-rank q-quantile of xs without reordering
// the caller's slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}
