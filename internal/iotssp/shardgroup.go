package iotssp

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/stats"
)

// ShardGroupConfig tunes a ShardGroup. The zero value selects defaults
// sized for fast failover between co-located replicas.
type ShardGroupConfig struct {
	// Shard tunes each member's RemoteShard client. Zero fields take the
	// RemoteShard defaults except the retry depth: a group member fails
	// over to a healthy replica instead of riding out a restart, so
	// MaxRetries defaults to a shallow 2 (with RetryBackoff 5ms and
	// MaxBackoff 25ms) rather than RemoteShard's deep 20. Shard.Seed
	// seeds the group's jitter source; each member derives its own
	// decorrelated seed from it.
	Shard RemoteShardConfig
	// FailureThreshold is the number of consecutive failed operations
	// after which a member is ejected from routing (each operation
	// already carries the member client's own shallow retries, so the
	// streak is debounced). 0 selects 1.
	FailureThreshold int
	// ProbeBackoff is the delay before an ejected member is probed for
	// re-admission; every failed probe doubles it (jittered to 50–150%)
	// up to MaxProbeBackoff. 0 selects 50ms.
	ProbeBackoff time.Duration
	// MaxProbeBackoff caps the probe backoff. 0 selects 2s.
	MaxProbeBackoff time.Duration
}

func (c ShardGroupConfig) withDefaults() ShardGroupConfig {
	if c.Shard.MaxRetries == 0 {
		c.Shard.MaxRetries = 2
		if c.Shard.RetryBackoff == 0 {
			c.Shard.RetryBackoff = 5 * time.Millisecond
		}
		if c.Shard.MaxBackoff == 0 {
			c.Shard.MaxBackoff = 25 * time.Millisecond
		}
	}
	c.Shard = c.Shard.withDefaults()
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 1
	}
	if c.ProbeBackoff <= 0 {
		c.ProbeBackoff = 50 * time.Millisecond
	}
	if c.MaxProbeBackoff <= 0 {
		c.MaxProbeBackoff = 2 * time.Second
	}
	return c
}

// ShardMemberStats is one group member's health and traffic snapshot.
type ShardMemberStats struct {
	// Addr is the member's address.
	Addr string `json:"addr"`
	// BreakerState is the member's health: admission, failure streak,
	// ejection/re-admission transitions.
	backoff.BreakerState
	// Requests and Failures count operations routed at this member and
	// the ones that failed at the transport level.
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
	// Shard snapshots the member's RemoteShard client counters
	// (including its lineconn transport block).
	Shard RemoteShardStats `json:"shard"`
}

// ShardGroupStats is a snapshot of a ShardGroup's counters.
type ShardGroupStats struct {
	// Requests counts shard operations issued to the group; Failovers
	// counts operations re-routed to another member after a retryable
	// failure; Failures counts operations that exhausted every member.
	Requests  uint64 `json:"requests"`
	Failovers uint64 `json:"failovers"`
	Failures  uint64 `json:"failures"`
	// Version is the group's reconciled enrolment version (the maximum
	// observed across members).
	Version uint64 `json:"version"`
	// Members holds per-member health and traffic in member order.
	Members []ShardMemberStats `json:"members"`
}

// Snapshot converts the counters into the uniform stats currency.
func (s ShardGroupStats) Snapshot() stats.Snapshot {
	return stats.New("shard_group", s)
}

// groupMember is one replicated shard server: its RemoteShard client
// plus its health breaker.
type groupMember struct {
	rs      *RemoteShard
	breaker *backoff.Breaker

	requests, failures atomic.Uint64
}

// ShardGroup is a replicated shard: N shard servers hosting identical
// copies of one partition behind a single health-aware core.Shard, so a
// core.ShardedBank (assembled through core.NewShardedBankFrom) sees one
// logical shard whose restarts cost zero added latency. It is the
// FleetPool machinery one layer down: read operations
// (classify/discriminate/meta) round-robin across admitted members for
// load spread, a member failing an operation is retried transparently
// on the next member, FailureThreshold consecutive failures eject a
// member from routing, and an ejected member is probed back in with
// jittered doubling backoff — so a mid-run member restart is absorbed
// by failover instead of every in-flight request riding a deep retry
// loop against the dead server (the retry burst a single-replica
// RemoteShard pays).
//
// Enrolments fan out to every member — each replica must train the new
// type so reads stay equivalent wherever they land — and the group's
// Version reconciles to the maximum observed across members: replicas
// that start at the same version move in lockstep through a fan-out
// enrolment, so the verdict cache above sees exactly one version bump
// and invalidates the dependent entries exactly once, never once per
// replica. An enrolment that fails on any member is surfaced as an
// error (the replicas may have diverged and the group refuses to hide
// it); "already enrolled" answers reconcile against the member's
// authoritative type list the way core.ShardedBank.Enroll does, so a
// retried fan-out whose first attempt partially landed converges.
//
// The members must host bit-identical banks (same training data,
// config and seed): the group load-spreads reads on the assumption that
// any member's answer is the answer. ShardGroup is safe for concurrent
// use.
//
// Membership is mutable: the control plane rolls a member replacement
// through AddMember/RemoveMember while reads keep flowing — every
// operation snapshots the member list, so in-flight scatters finish
// against the members they started with.
type ShardGroup struct {
	cfg    ShardGroupConfig
	jitter *backoff.Jitter
	bcfg   backoff.BreakerConfig
	cursor atomic.Uint64 // round-robin member cursor

	// memberMu guards the member list; operations snapshot it and run
	// lock-free against the snapshot.
	memberMu sync.RWMutex
	members  []*groupMember

	// versionFloor keeps Version monotonic across membership changes:
	// removing the member carrying the maximum stamp must not roll the
	// group's reconciled version back (the verdict cache above depends
	// on versions only growing).
	versionFloor atomic.Uint64

	// typesMu guards the cached type list (refreshed by Types).
	typesMu sync.Mutex
	types   []string

	requests, failovers, failures atomic.Uint64
}

// NewShardGroup creates a group over the member shard-server addresses.
// No connection is made until the first operation.
func NewShardGroup(addrs []string, cfg ShardGroupConfig) *ShardGroup {
	cfg = cfg.withDefaults()
	g := &ShardGroup{
		cfg:    cfg,
		jitter: backoff.NewJitter(cfg.Shard.Seed),
		bcfg: backoff.BreakerConfig{
			FailureThreshold: cfg.FailureThreshold,
			ProbeBackoff:     cfg.ProbeBackoff,
			MaxProbeBackoff:  cfg.MaxProbeBackoff,
		},
		members: make([]*groupMember, len(addrs)),
	}
	for i, addr := range addrs {
		g.members[i] = g.newMember(addr)
	}
	return g
}

// newMember mints one member client with its own decorrelated jitter
// seed and a fresh breaker.
func (g *ShardGroup) newMember(addr string) *groupMember {
	mcfg := g.cfg.Shard
	mcfg.Seed = g.jitter.Derive()
	return &groupMember{
		rs:      NewRemoteShard(addr, mcfg),
		breaker: backoff.NewBreaker(g.bcfg, g.jitter),
	}
}

// snapshot returns the current member list for one operation's
// lifetime.
func (g *ShardGroup) snapshot() []*groupMember {
	g.memberMu.RLock()
	defer g.memberMu.RUnlock()
	return g.members
}

// AddMember joins a new shard server to the group. The caller owns the
// bit-equality contract: the new member must host a bank identical to
// the incumbents' (the control plane mints one by replaying the
// partition's enrolment history) — the group starts routing reads to it
// as soon as its breaker admits it.
func (g *ShardGroup) AddMember(addr string) {
	m := g.newMember(addr)
	g.memberMu.Lock()
	g.members = append(append([]*groupMember(nil), g.members...), m)
	g.memberMu.Unlock()
}

// RemoveMember detaches the member at addr and severs its connections.
// The group's reconciled Version never regresses: the departing
// member's stamp is folded into the monotonic floor first. Removing the
// last member is refused — a group with no members could serve nothing.
func (g *ShardGroup) RemoveMember(addr string) error {
	g.memberMu.Lock()
	idx := -1
	for i, m := range g.members {
		if m.rs.Addr() == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		g.memberMu.Unlock()
		return fmt.Errorf("iotssp: shard group: no member at %s", addr)
	}
	if len(g.members) == 1 {
		g.memberMu.Unlock()
		return errors.New("iotssp: shard group: refusing to remove the last member")
	}
	m := g.members[idx]
	rest := make([]*groupMember, 0, len(g.members)-1)
	rest = append(rest, g.members[:idx]...)
	rest = append(rest, g.members[idx+1:]...)
	g.members = rest
	g.memberMu.Unlock()
	g.foldVersion(m.rs.Version())
	return m.rs.Close()
}

// Counters snapshots the group's typed counters and per-member health.
func (g *ShardGroup) Counters() ShardGroupStats {
	members := g.snapshot()
	st := ShardGroupStats{
		Requests:  g.requests.Load(),
		Failovers: g.failovers.Load(),
		Failures:  g.failures.Load(),
		Version:   g.Version(),
		Members:   make([]ShardMemberStats, len(members)),
	}
	for i, m := range members {
		st.Members[i] = ShardMemberStats{
			Addr:         m.rs.Addr(),
			BreakerState: m.breaker.State(),
			Requests:     m.requests.Load(),
			Failures:     m.failures.Load(),
			Shard:        m.rs.Counters(),
		}
	}
	return st
}

// Stats implements the control plane's Component contract: the typed
// counters marshalled as raw JSON.
func (g *ShardGroup) Stats() json.RawMessage {
	return g.Counters().Snapshot().Data
}

// Healthy implements the Component contract: the group is healthy while
// at least one member is admitted for routing.
func (g *ShardGroup) Healthy() bool {
	for _, m := range g.snapshot() {
		if m.breaker.State().Healthy {
			return true
		}
	}
	return false
}

// Members returns the group size.
func (g *ShardGroup) Members() int { return len(g.snapshot()) }

// Member returns the i-th member's RemoteShard client (for targeted
// inspection in failover drills).
func (g *ShardGroup) Member(i int) *RemoteShard { return g.snapshot()[i].rs }

// do runs one read operation with health-aware member failover: members
// are tried in round-robin order starting from the rotating cursor,
// skipping ejected ones, and a transport-level failure moves on to the
// next admitted member. When every member is ejected, one caller is let
// through as a full-outage recovery probe.
func (g *ShardGroup) do(attempt func(*RemoteShard) (shardResponse, error)) (shardResponse, error) {
	g.requests.Add(1)
	members := g.snapshot()
	start := int(g.cursor.Add(1) % uint64(len(members)))
	var lastErr error
	attempted := false
	for k := 0; k < len(members); k++ {
		m := members[(start+k)%len(members)]
		if !m.breaker.Admit(time.Now()) {
			continue
		}
		if attempted {
			g.failovers.Add(1)
		}
		attempted = true
		resp, err := g.tryMember(m, attempt)
		if err == nil || (resp.Error != "" && !resp.Retryable) {
			return resp, err
		}
		lastErr = err
	}
	if !attempted {
		// Every member is ejected and none is due for a scheduled probe:
		// push one paced probe rather than failing without trying. At
		// most one probe is in flight per member; concurrent callers fail
		// fast instead of herding onto a down shard.
		m := members[start]
		if !m.breaker.AdmitProbe() {
			g.failures.Add(1)
			return shardResponse{}, fmt.Errorf("iotssp: shard group: all %d members ejected, recovery probe in flight", len(members))
		}
		resp, err := g.tryMember(m, attempt)
		if err == nil || (resp.Error != "" && !resp.Retryable) {
			return resp, err
		}
		lastErr = err
	}
	g.failures.Add(1)
	return shardResponse{}, fmt.Errorf("iotssp: shard group: all %d members failed: %w", len(members), lastErr)
}

// tryMember runs one operation against one member and folds the outcome
// into its breaker. The operation runs as the member's own client call
// (attempt receives the member's RemoteShard), so per-connection codec
// state — the fingerprint dictionary, the name-intern tables —
// belongs to the member the request actually lands on, and a failover
// re-encodes against the next member instead of replaying bytes coined
// for the first. A non-retryable service error (malformed request,
// duplicate enrolment) counts as member health: the shard itself
// answered, and another replica would answer the same.
func (g *ShardGroup) tryMember(m *groupMember, attempt func(*RemoteShard) (shardResponse, error)) (shardResponse, error) {
	m.requests.Add(1)
	resp, err := attempt(m.rs)
	if err == nil || (resp.Error != "" && !resp.Retryable) {
		m.breaker.NoteSuccess()
		return resp, err
	}
	m.failures.Add(1)
	m.breaker.NoteFailure(time.Now())
	return resp, err
}

// ClassifyBatch implements core.Shard: the batch ships to one healthy
// member (any replica's answer is the answer), failing over
// transparently if that member dies mid-flight. On a full group outage
// it fails open to all-reject, like RemoteShard. Each member encodes
// the batch itself, against its own connection's dictionary, so a
// failover re-encodes for whichever member (and dictionary
// incarnation) it lands on.
func (g *ShardGroup) ClassifyBatch(fps []*fingerprint.Fingerprint, workers int) [][]string {
	_ = workers // the member server fans the batch across its own cores
	out := make([][]string, len(fps))
	if len(fps) == 0 {
		return out
	}
	for _, f := range fps {
		if f == nil {
			return out // nothing packable; fail open like a pack error
		}
	}
	resp, err := g.do(func(rs *RemoteShard) (shardResponse, error) {
		return rs.doEnc(OpClassify, rs.classifyEncoder(fps), rs.cfg.Timeout)
	})
	if err != nil || len(resp.Accepts) != len(fps) {
		return out
	}
	return resp.Accepts
}

// Discriminate implements core.Shard with the same member failover and
// the same per-member encoding. On a full group outage it reports no
// scores, conceding the discrimination to the other shards' candidates.
func (g *ShardGroup) Discriminate(f *fingerprint.Fingerprint, candidates []string) (string, map[string]float64) {
	if f == nil {
		return "", nil
	}
	resp, err := g.do(func(rs *RemoteShard) (shardResponse, error) {
		return rs.doEnc(OpDiscriminate, rs.discriminateEncoder(f, candidates), rs.cfg.Timeout)
	})
	if err != nil {
		return "", nil
	}
	return resp.Best, resp.Scores
}

// Enroll implements core.Shard by fanning the enrolment out to every
// member concurrently: each replica trains the new type so reads stay
// equivalent wherever the group routes them, and because members that
// start at the same version all move one step, the reconciled group
// Version bumps exactly once. A member answering "already enrolled" is
// reconciled against its authoritative type list (a lost enrolment ack
// retried through the fan-out must converge, not fail). Any other
// member error is surfaced: the replicas may have diverged and hiding
// it would quietly break the bit-equality contract.
func (g *ShardGroup) Enroll(name string, prints []*fingerprint.Fingerprint) error {
	members := g.snapshot()
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *groupMember) {
			defer wg.Done()
			err := m.rs.Enroll(name, prints)
			if err != nil {
				// Reconcile against the member's authoritative state, the
				// way core.ShardedBank.Enroll does: if the member lists the
				// type, this enrolment (or a lost-ack predecessor) landed.
				for _, have := range m.rs.Types() {
					if have == name {
						err = nil
						break
					}
				}
			}
			if err != nil {
				errs[i] = fmt.Errorf("iotssp: shard group member %s: %w", m.rs.Addr(), err)
			}
		}(i, m)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Version implements core.Shard as the maximum enrolment version
// observed across members — the group's reconciled version — kept
// monotonic across membership changes by the version floor. It never
// blocks on the network: each member serves its locally cached stamp,
// and versions only grow, so the maximum is monotonic even while a
// fan-out enrolment is mid-flight across the replicas.
func (g *ShardGroup) Version() uint64 {
	var v uint64
	for _, m := range g.snapshot() {
		if mv := m.rs.Version(); mv > v {
			v = mv
		}
	}
	return g.foldVersion(v)
}

// foldVersion folds an observed version into the monotonic floor and
// returns the floor's new value.
func (g *ShardGroup) foldVersion(v uint64) uint64 {
	for {
		cur := g.versionFloor.Load()
		if v <= cur {
			return cur
		}
		if g.versionFloor.CompareAndSwap(cur, v) {
			return v
		}
	}
}

// Types implements core.Shard: it asks a healthy member for the
// replicated partition's type list, falling back to the last
// successfully fetched list when the whole group is unreachable.
func (g *ShardGroup) Types() []string {
	resp, err := g.do(func(rs *RemoteShard) (shardResponse, error) {
		return rs.do(shardRequest{Op: OpMeta}, rs.cfg.Timeout)
	})
	g.typesMu.Lock()
	defer g.typesMu.Unlock()
	if err == nil {
		g.types = append([]string(nil), resp.Types...)
	}
	return append([]string(nil), g.types...)
}

// Remove implements core.Shard by fanning the removal out to every
// member concurrently — each replica retires the type so reads stay
// equivalent wherever the group routes them, and members in lockstep
// bump the reconciled Version exactly once. A member that no longer
// lists the type reconciles to success (a retried fan-out whose first
// attempt partially landed must converge); any other member error is
// surfaced.
func (g *ShardGroup) Remove(name string) error {
	members := g.snapshot()
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *groupMember) {
			defer wg.Done()
			err := m.rs.Remove(name)
			if err != nil {
				// Reconcile against the member's authoritative state: if
				// the member no longer lists the type, this removal (or a
				// lost-ack predecessor) landed.
				present := false
				for _, have := range m.rs.Types() {
					if have == name {
						present = true
						break
					}
				}
				if !present {
					err = nil
				}
			}
			if err != nil {
				errs[i] = fmt.Errorf("iotssp: shard group member %s: %w", m.rs.Addr(), err)
			}
		}(i, m)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Snapshot implements core.Shard: the serialized state comes from one
// healthy member (the members host bit-identical banks, so any
// member's snapshot is the snapshot), with the usual failover.
func (g *ShardGroup) Snapshot() ([]byte, error) {
	resp, err := g.do(func(rs *RemoteShard) (shardResponse, error) {
		return rs.do(shardRequest{Op: OpSnapshot}, rs.cfg.EnrollTimeout)
	})
	if err != nil {
		return nil, err
	}
	return resp.Snapshot, nil
}

// Restore implements core.Shard by fanning the snapshot out to every
// member concurrently — replicas must load the same state to keep
// reads equivalent wherever they land. Any member error is surfaced
// (the replicas may have diverged and the group refuses to hide it).
func (g *ShardGroup) Restore(snapshot []byte) error {
	members := g.snapshot()
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *groupMember) {
			defer wg.Done()
			if err := m.rs.Restore(snapshot); err != nil {
				errs[i] = fmt.Errorf("iotssp: shard group member %s: %w", m.rs.Addr(), err)
			}
		}(i, m)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close severs every member's connections and fails outstanding
// requests.
func (g *ShardGroup) Close() error {
	for _, m := range g.snapshot() {
		m.rs.Close()
	}
	return nil
}

// ShardGroup implements core.Shard over replicated shard servers.
var _ core.Shard = (*ShardGroup)(nil)
