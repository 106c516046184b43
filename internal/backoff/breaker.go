package backoff

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerConfig tunes a Breaker. All fields must be set (the owners'
// config defaulting happens upstream, where the zero values are
// documented).
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures after which
	// the tracked peer is ejected from routing.
	FailureThreshold int
	// ProbeBackoff is the delay before an ejected peer is probed for
	// re-admission; every failed probe doubles it (jittered to 50–150%)
	// up to MaxProbeBackoff.
	ProbeBackoff    time.Duration
	MaxProbeBackoff time.Duration
}

// BreakerState is one peer's health snapshot.
type BreakerState struct {
	// Healthy reports whether the peer is currently admitted to routing.
	Healthy bool `json:"healthy"`
	// ConsecutiveFailures is the current failure streak (reset by any
	// success).
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Ejections and Readmissions count health-state transitions.
	Ejections    uint64 `json:"ejections"`
	Readmissions uint64 `json:"readmissions"`
}

// Breaker tracks one remote peer's health for a failover router: it is
// the consecutive-failure ejection / probing re-admission machinery
// gateway.FleetPool keeps per service replica. A healthy peer admits
// every request; FailureThreshold consecutive failures eject it; after
// a jittered, exponentially growing probe backoff a single request is
// let through as a probe, and a success re-admits the peer. At most one
// probe is ever in flight, so an outage storm cannot herd onto a
// struggling peer.
//
// A Breaker starts healthy and is safe for concurrent use.
type Breaker struct {
	cfg    BreakerConfig
	jitter *Jitter

	mu sync.Mutex
	// healthy: admitted to routing. When false, nextProbe is the
	// earliest time one request may be let through as a re-admission
	// probe, and backoff the current probe interval.
	healthy     bool
	consecFails int
	probing     bool
	nextProbe   time.Time
	backoff     time.Duration

	ejections, readmissions atomic.Uint64
}

// NewBreaker creates a healthy breaker drawing probe jitter from the
// shared source.
func NewBreaker(cfg BreakerConfig, jitter *Jitter) *Breaker {
	return &Breaker{cfg: cfg, jitter: jitter, healthy: true}
}

// Admit decides whether a request may be routed at the peer right now:
// yes when healthy; when ejected, yes once per elapsed probe backoff
// (the caller's request doubles as the probe).
func (b *Breaker) Admit(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.healthy {
		return true
	}
	if !b.probing && now.After(b.nextProbe) {
		b.probing = true
		return true
	}
	return false
}

// AdmitProbe lets exactly one caller through as a full-outage recovery
// probe: it ignores the backoff window (every peer is down and someone
// must look for signs of life) but never admits concurrent probes.
func (b *Breaker) AdmitProbe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.healthy {
		return true
	}
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// NoteSuccess records a successful round-trip: the failure streak
// resets and an ejected peer is re-admitted.
func (b *Breaker) NoteSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
	b.probing = false
	if !b.healthy {
		b.healthy = true
		b.readmissions.Add(1)
	}
}

// NoteFailure records a failed round-trip, ejecting the peer after
// threshold consecutive failures or pushing an ejected peer's next
// probe out by the (jittered, doubling, capped) backoff.
func (b *Breaker) NoteFailure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	if b.healthy {
		if b.consecFails >= b.cfg.FailureThreshold {
			b.healthy = false
			b.ejections.Add(1)
			b.backoff = b.cfg.ProbeBackoff
			b.nextProbe = now.Add(b.jitter.Scale(b.backoff))
		}
		return
	}
	// A failed probe: back off further before the next one.
	b.probing = false
	b.backoff *= 2
	if b.backoff > b.cfg.MaxProbeBackoff {
		b.backoff = b.cfg.MaxProbeBackoff
	}
	b.nextProbe = now.Add(b.jitter.Scale(b.backoff))
}

// State snapshots the peer's health.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	healthy, fails := b.healthy, b.consecFails
	b.mu.Unlock()
	return BreakerState{
		Healthy:             healthy,
		ConsecutiveFailures: fails,
		Ejections:           b.ejections.Load(),
		Readmissions:        b.readmissions.Load(),
	}
}
