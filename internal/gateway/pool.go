package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/fingerprint"
	"repro/internal/iotssp"
	"repro/internal/lineconn"
	"repro/internal/stats"
)

// PoolConfig tunes a Pool. The zero value selects sensible defaults.
type PoolConfig struct {
	// Conns is the number of persistent TCP connections to the service.
	// Requests multiplex across them by device MAC, so one busy gateway
	// pipelines many identifications concurrently. 0 selects 4.
	Conns int
	// Timeout bounds each request round-trip (tightened further by the
	// caller's context deadline). 0 selects 10s.
	Timeout time.Duration
	// MaxRetries is how many times a request is retried after transport
	// failures or retryable (backpressure) service errors, with jittered
	// exponential backoff between attempts. 0 selects 3.
	MaxRetries int
	// RetryBackoff is the base backoff before the first retry; each
	// further retry doubles it, and every sleep is jittered to 50–150%
	// so a fleet of gateways does not reconnect in lockstep. 0 selects
	// 25ms.
	RetryBackoff time.Duration
	// Seed seeds the jitter generator (0 selects 1).
	Seed int64
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// PoolStats is a snapshot of a Pool's counters.
type PoolStats struct {
	// Requests counts Identify calls; Retries counts extra attempts
	// after transport failures or backpressure responses.
	Requests uint64 `json:"requests"`
	Retries  uint64 `json:"retries"`
	// Failures counts Identify calls that returned an error after
	// exhausting their retries.
	Failures uint64 `json:"failures"`
	// Transport is the pooled connections' shared lineconn counter
	// block (dials, reconnects, writes, bursts, dropped correlations):
	// Requests against Transport.Writes reads how many requests each
	// socket write carries.
	Transport lineconn.Stats `json:"transport"`
}

// Snapshot converts the counters into the uniform stats currency.
func (s PoolStats) Snapshot() stats.Snapshot {
	return stats.New("gateway_pool", s)
}

// Pool is a pooled TCP client for the IoT Security Service: N
// persistent connections with pipelined request multiplexing over
// internal/lineconn. Connections carry no handshake and no state:
// every request is one binary identify frame
// (iotssp.AppendIdentifyFrame) and every reply one verdict frame, so
// the service keeps nothing about the gateway between requests. Each
// device MAC maps to a fixed connection (spreading the fleet across the
// pool while keeping a device's requests together), many requests ride
// each connection at once with responses matched by the service's line
// echo, and broken connections redial lazily with jittered exponential
// backoff. Pool implements Identifier and is safe for concurrent use by
// the gateway's identification workers.
type Pool struct {
	cfg       PoolConfig
	conns     []*lineconn.Conn[iotssp.Response]
	retry     lineconn.Retry
	transport *lineconn.Counters

	requests, retries, failures atomic.Uint64
	// unhealthy latches after an Identify exhausts its retries and
	// clears on the next success (Healthy's signal).
	unhealthy atomic.Bool
}

// NewPool creates a pool for the service at addr (host:port). No
// connection is made until the first Identify.
func NewPool(addr string, cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:       cfg,
		transport: lineconn.NewCounters(),
	}
	p.retry = lineconn.Retry{Base: cfg.RetryBackoff, Jitter: backoff.NewJitter(cfg.Seed)}
	opts := lineconn.Options[iotssp.Response]{Counters: p.transport, Decoder: iotssp.NewVerdictReader}
	p.conns = make([]*lineconn.Conn[iotssp.Response], cfg.Conns)
	for i := range p.conns {
		p.conns[i] = lineconn.New[iotssp.Response](addr, opts)
	}
	return p
}

// Counters snapshots the pool's typed counters.
func (p *Pool) Counters() PoolStats {
	return PoolStats{
		Requests:  p.requests.Load(),
		Retries:   p.retries.Load(),
		Failures:  p.failures.Load(),
		Transport: p.transport.Snapshot(),
	}
}

// Stats implements the control plane's Component contract: the typed
// counters marshalled as raw JSON.
func (p *Pool) Stats() json.RawMessage {
	return p.Counters().Snapshot().Data
}

// Healthy implements the Component contract: the pool is healthy until
// an Identify exhausts its retries, and recovers on the next success.
func (p *Pool) Healthy() bool {
	return !p.unhealthy.Load()
}

// pick maps a MAC to its home connection by the MAC's 32-bit FNV-1a
// hash (inlined: hash/fnv allocates per call).
func (p *Pool) pick(mac string) *lineconn.Conn[iotssp.Response] {
	h := uint32(2166136261)
	for i := 0; i < len(mac); i++ {
		h = (h ^ uint32(mac[i])) * 16777619
	}
	return p.conns[h%uint32(len(p.conns))]
}

// Identify implements Identifier: it submits the fingerprint over the
// MAC's home connection and waits for the multiplexed response,
// retrying transport failures and backpressure responses with jittered
// backoff.
func (p *Pool) Identify(ctx context.Context, mac string, fp *fingerprint.Fingerprint) (iotssp.Response, error) {
	p.requests.Add(1)
	return p.identify(ctx, mac, fp)
}

// identify is Identify without the request accounting, so batch-path
// fallbacks (already counted by IdentifyBatch) do not double-count.
func (p *Pool) identify(ctx context.Context, mac string, fp *fingerprint.Fingerprint) (iotssp.Response, error) {
	if fp == nil {
		return iotssp.Response{}, fmt.Errorf("gateway: identify %s: %w", mac, errNilFingerprint)
	}
	buf := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(buf)
	*buf = iotssp.AppendIdentifyFrame((*buf)[:0], mac, fp)
	body := *buf
	pc := p.pick(mac)
	var lastErr error
	for attempt := 0; attempt <= p.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			p.retries.Add(1)
			if err := p.retry.Sleep(ctx, attempt); err != nil {
				p.failures.Add(1)
				return iotssp.Response{}, fmt.Errorf("gateway: identify %s: %w (last error: %v)", mac, err, lastErr)
			}
		}
		resp, err := pc.RoundTrip(ctx, body, p.cfg.Timeout)
		resp.MAC = mac
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if resp.Error != "" {
			if resp.Retryable {
				// Server backpressure: well-formed request, try again
				// after backing off.
				lastErr = fmt.Errorf("service backpressure: %s", resp.Error)
				continue
			}
			p.failures.Add(1)
			// The service answered; the request itself was rejected.
			p.unhealthy.Store(false)
			return resp, fmt.Errorf("gateway: service error: %s", resp.Error)
		}
		p.unhealthy.Store(false)
		return resp, nil
	}
	p.failures.Add(1)
	p.unhealthy.Store(true)
	return iotssp.Response{}, fmt.Errorf("gateway: identify %s: %w", mac, lastErr)
}

// frameBufs recycles identify frames: a round-trip copies its body
// before it returns, so a frame is free again once identify is done.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// errNilFingerprint is the non-retryable encode failure of the
// identify paths (everything else about a fingerprint encodes).
var errNilFingerprint = fmt.Errorf("nil fingerprint")

// IdentifyBatch implements BatchIdentifier: the batch is grouped by
// each MAC's home connection and every group goes out as one pipelined
// burst — queued together, so one write carries all the group's
// request frames — with the multiplexed responses correlated by line
// echo as usual. Entries that fail retryably (transport errors, service
// backpressure) fall back to the single-request path, which carries the
// jittered-backoff retry loop; non-retryable service errors surface
// positionally.
// resps[i]/errs[i] describe (macs[i], fps[i]).
func (p *Pool) IdentifyBatch(ctx context.Context, macs []string, fps []*fingerprint.Fingerprint) ([]iotssp.Response, []error) {
	resps := make([]iotssp.Response, len(macs))
	errs := make([]error, len(macs))
	if len(macs) == 0 {
		return resps, errs
	}

	// Group the batch by home connection, preserving batch order within
	// each group.
	groups := make(map[*lineconn.Conn[iotssp.Response]][]int, len(p.conns))
	bodies := make([][]byte, len(macs))
	for i, mac := range macs {
		p.requests.Add(1)
		if fps[i] == nil {
			errs[i] = fmt.Errorf("gateway: identify %s: %w", mac, errNilFingerprint)
			continue
		}
		bodies[i] = iotssp.AppendIdentifyFrame(nil, mac, fps[i])
		pc := p.pick(mac)
		groups[pc] = append(groups[pc], i)
	}

	// Burst each group over its connection concurrently.
	var wg sync.WaitGroup
	for pc, idxs := range groups {
		wg.Add(1)
		go func(pc *lineconn.Conn[iotssp.Response], idxs []int) {
			defer wg.Done()
			burst := make([][]byte, len(idxs))
			for j, i := range idxs {
				burst[j] = bodies[i]
			}
			got, gerrs := pc.RoundTripBatch(ctx, burst, p.cfg.Timeout)
			for j, i := range idxs {
				resps[i], errs[i] = got[j], gerrs[j]
				resps[i].MAC = macs[i]
			}
		}(pc, idxs)
	}
	wg.Wait()

	// Retry the retryable leftovers individually: Identify owns the
	// backoff/redial loop, so a dropped connection or backpressure reply
	// costs one slow path instead of failing the whole flush.
	for i := range macs {
		if errs[i] == nil {
			if resps[i].Error == "" {
				continue
			}
			if !resps[i].Retryable {
				errs[i] = fmt.Errorf("gateway: service error: %s", resps[i].Error)
				continue
			}
		} else if bodies[i] == nil {
			continue // nil fingerprints cannot be retried
		}
		p.retries.Add(1)
		resps[i], errs[i] = p.identify(ctx, macs[i], fps[i])
	}
	return resps, errs
}

// Close severs every pooled connection and fails their outstanding
// requests.
func (p *Pool) Close() error {
	for _, pc := range p.conns {
		pc.Close()
	}
	return nil
}
