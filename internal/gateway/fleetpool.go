package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/fingerprint"
	"repro/internal/iotssp"
	"repro/internal/stats"
)

// FleetPoolConfig tunes a FleetPool. The zero value selects sensible
// defaults.
type FleetPoolConfig struct {
	// Pool tunes the per-backend connection pool (conns, timeout,
	// retries, backoff). Pool.Seed seeds the fleet's jitter source;
	// each backend pool derives its own decorrelated seed from it.
	Pool PoolConfig
	// VirtualNodes is the number of consistent-hash ring points per
	// backend. More points smooth the MAC distribution and the
	// rebalance when a backend is ejected. 0 selects 64.
	VirtualNodes int
	// FailureThreshold is the number of consecutive failed requests
	// after which a backend is ejected from routing. 0 selects 3.
	FailureThreshold int
	// ProbeBackoff is the delay before an ejected backend is probed for
	// re-admission; every failed probe doubles it (jittered to 50–150%)
	// up to MaxProbeBackoff. 0 selects 100ms.
	ProbeBackoff time.Duration
	// MaxProbeBackoff caps the probe backoff. 0 selects 2s.
	MaxProbeBackoff time.Duration
}

func (c FleetPoolConfig) withDefaults() FleetPoolConfig {
	c.Pool = c.Pool.withDefaults()
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 64
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.ProbeBackoff <= 0 {
		c.ProbeBackoff = 100 * time.Millisecond
	}
	if c.MaxProbeBackoff <= 0 {
		c.MaxProbeBackoff = 2 * time.Second
	}
	return c
}

// BackendStats is one backend's health and traffic snapshot.
type BackendStats struct {
	// Addr is the backend's address.
	Addr string `json:"addr"`
	// BreakerState is the backend's health: admission, failure streak,
	// ejection/re-admission transitions.
	backoff.BreakerState
	// Requests and Failures count attempts routed at this backend and
	// the ones that failed.
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
	// Pool snapshots the backend's connection-pool counters.
	Pool PoolStats `json:"pool"`
}

// FleetPoolStats is a snapshot of a FleetPool's counters.
type FleetPoolStats struct {
	// Requests counts Identify calls; Failovers counts attempts
	// re-routed to another backend after a retryable failure; Failures
	// counts Identify calls that exhausted every admitted backend.
	Requests  uint64 `json:"requests"`
	Failovers uint64 `json:"failovers"`
	Failures  uint64 `json:"failures"`
	// Backends holds per-backend health and traffic.
	Backends []BackendStats `json:"backends"`
}

// Snapshot converts the counters into the uniform stats currency.
func (s FleetPoolStats) Snapshot() stats.Snapshot {
	return stats.New("fleet_pool", s)
}

// fleetBackend is one replica endpoint: its connection pool plus its
// health breaker (the consecutive-failure ejection / probing
// re-admission machinery of internal/backoff).
type fleetBackend struct {
	addr    string
	pool    *Pool
	breaker *backoff.Breaker

	requests, failures atomic.Uint64
}

// ringPoint is one consistent-hash ring position.
type ringPoint struct {
	hash    uint64
	backend int
	// order is the failover order of a MAC homed at this point: the
	// distinct backends in ring order from here on. The ring never
	// changes after NewFleetPool, so it is computed once and shared
	// read-only by every request.
	order []int
}

// FleetPool routes identifications across a replicated IoT Security
// Service fleet. Device MACs are consistent-hashed onto a ring of
// virtual nodes, so each MAC has a stable home backend, the MAC→backend
// map is identical across gateway restarts, and ejecting a backend
// moves only that backend's MACs (to the next point on the ring) while
// everyone else stays put.
//
// Health is tracked per backend: FailureThreshold consecutive failures
// eject it from routing; after a jittered, exponentially growing
// probe backoff a single request is let through as a probe, and a
// success re-admits the backend (its MACs return home). A request
// whose backend fails mid-flight transparently fails over to the next
// healthy backend on the ring — retryable failures (transport errors,
// service backpressure) never surface to the caller while any replica
// can still answer.
//
// FleetPool implements Identifier and is safe for concurrent use.
type FleetPool struct {
	cfg      FleetPoolConfig
	backends []*fleetBackend
	ring     []ringPoint
	jitter   *backoff.Jitter

	requests, failovers, failures atomic.Uint64
}

// NewFleetPool creates a pool over the fleet's backend addresses. No
// connection is made until the first Identify. The ring layout depends
// only on the addresses and VirtualNodes, so a restarted gateway
// routes every MAC to the same backend as before.
func NewFleetPool(addrs []string, cfg FleetPoolConfig) *FleetPool {
	cfg = cfg.withDefaults()
	f := &FleetPool{cfg: cfg, jitter: backoff.NewJitter(cfg.Pool.Seed)}
	bcfg := backoff.BreakerConfig{
		FailureThreshold: cfg.FailureThreshold,
		ProbeBackoff:     cfg.ProbeBackoff,
		MaxProbeBackoff:  cfg.MaxProbeBackoff,
	}
	f.backends = make([]*fleetBackend, len(addrs))
	for i, addr := range addrs {
		pcfg := cfg.Pool
		pcfg.Seed = f.jitter.Derive()
		f.backends[i] = &fleetBackend{
			addr:    addr,
			pool:    NewPool(addr, pcfg),
			breaker: backoff.NewBreaker(bcfg, f.jitter),
		}
	}
	f.ring = make([]ringPoint, 0, len(addrs)*cfg.VirtualNodes)
	for i, addr := range addrs {
		base := fingerprint.HashString(addr)
		for vn := 0; vn < cfg.VirtualNodes; vn++ {
			f.ring = append(f.ring, ringPoint{
				hash:    fingerprint.CombineHash(base, uint64(vn)),
				backend: i,
			})
		}
	}
	sort.Slice(f.ring, func(i, j int) bool { return f.ring[i].hash < f.ring[j].hash })
	orders := make([]int, 0, len(f.ring)*len(addrs))
	seen := make([]bool, len(addrs))
	for i := range f.ring {
		start := len(orders)
		clear(seen)
		for k := 0; k < len(f.ring) && len(orders)-start < len(addrs); k++ {
			p := f.ring[(i+k)%len(f.ring)]
			if !seen[p.backend] {
				seen[p.backend] = true
				orders = append(orders, p.backend)
			}
		}
		f.ring[i].order = orders[start:len(orders):len(orders)]
	}
	return f
}

// Counters snapshots the fleet's typed counters and per-backend
// health.
func (f *FleetPool) Counters() FleetPoolStats {
	st := FleetPoolStats{
		Requests:  f.requests.Load(),
		Failovers: f.failovers.Load(),
		Failures:  f.failures.Load(),
		Backends:  make([]BackendStats, len(f.backends)),
	}
	for i, b := range f.backends {
		st.Backends[i] = BackendStats{
			Addr:         b.addr,
			BreakerState: b.breaker.State(),
			Requests:     b.requests.Load(),
			Failures:     b.failures.Load(),
			Pool:         b.pool.Counters(),
		}
	}
	return st
}

// Stats implements the control plane's Component contract: the typed
// counters marshalled as raw JSON.
func (f *FleetPool) Stats() json.RawMessage {
	return f.Counters().Snapshot().Data
}

// Healthy implements the Component contract: the fleet is healthy while
// at least one backend is admitted for routing.
func (f *FleetPool) Healthy() bool {
	for _, b := range f.backends {
		if b.breaker.State().Healthy {
			return true
		}
	}
	return false
}

// order returns the distinct backends to try for a MAC: the home
// backend (first ring point at or after the MAC's hash), then the
// remaining backends in ring order — the same walk an ejection-time
// rebalance takes, so failover lands requests exactly where the ring
// would re-home them. The slice is shared: callers must not modify it.
func (f *FleetPool) order(mac string) []int {
	if len(f.ring) == 0 {
		return nil
	}
	h := fingerprint.Mix64(fingerprint.HashString(mac))
	i := sort.Search(len(f.ring), func(j int) bool { return f.ring[j].hash >= h })
	return f.ring[i%len(f.ring)].order
}

// home returns the MAC's home backend index (the routing target when
// every backend is healthy).
func (f *FleetPool) home(mac string) int {
	return f.order(mac)[0]
}

// Identify implements Identifier: it routes the fingerprint to the
// MAC's home backend and, when that fails retryably (transport error
// or exhausted backpressure retries), transparently fails over along
// the ring to the next admitted backend. Non-retryable service errors
// (malformed requests) surface immediately and do not count against
// backend health.
func (f *FleetPool) Identify(ctx context.Context, mac string, fp *fingerprint.Fingerprint) (iotssp.Response, error) {
	f.requests.Add(1)
	if len(f.backends) == 0 {
		return iotssp.Response{}, fmt.Errorf("gateway: fleet pool has no backends")
	}
	order := f.order(mac)
	var lastErr error
	attempted := false
	for _, idx := range order {
		b := f.backends[idx]
		if !b.breaker.Admit(time.Now()) {
			continue
		}
		if attempted {
			f.failovers.Add(1)
		}
		attempted = true
		b.requests.Add(1)
		resp, err := b.pool.Identify(ctx, mac, fp)
		if err == nil {
			b.breaker.NoteSuccess()
			return resp, nil
		}
		if resp.Error != "" && !resp.Retryable {
			// The service rejected the request itself; the backend is
			// fine and another replica would answer the same.
			b.breaker.NoteSuccess()
			return resp, err
		}
		b.failures.Add(1)
		b.breaker.NoteFailure(time.Now())
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	if !attempted {
		// Every backend is ejected and none is due for a scheduled
		// probe: push one paced probe at the home backend rather than
		// failing without trying (the full-outage recovery path). At
		// most one probe is in flight per backend; concurrent callers
		// fail fast instead of herding onto a down service.
		b := f.backends[order[0]]
		if !b.breaker.AdmitProbe() {
			f.failures.Add(1)
			return iotssp.Response{}, fmt.Errorf("gateway: identify %s: all %d backends ejected, recovery probe in flight", mac, len(f.backends))
		}
		b.requests.Add(1)
		resp, err := b.pool.Identify(ctx, mac, fp)
		if err == nil {
			b.breaker.NoteSuccess()
			return resp, nil
		}
		b.failures.Add(1)
		b.breaker.NoteFailure(time.Now())
		lastErr = err
	}
	f.failures.Add(1)
	return iotssp.Response{}, fmt.Errorf("gateway: identify %s: all %d backends failed: %w", mac, len(f.backends), lastErr)
}

// Close severs every backend pool.
func (f *FleetPool) Close() error {
	for _, b := range f.backends {
		b.pool.Close()
	}
	return nil
}
