package iotssp

import (
	"container/list"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
)

// CacheStats is a snapshot of the verdict cache counters.
type CacheStats struct {
	// Hits counts lookups served from a completed cache entry.
	Hits uint64 `json:"hits"`
	// Shared counts lookups that attached to an in-flight computation of
	// the same fingerprint instead of recomputing it (the singleflight
	// collapse), including duplicates deduplicated inside one batch.
	Shared uint64 `json:"shared"`
	// Misses counts lookups that had to compute a fresh verdict.
	Misses uint64 `json:"misses"`
	// Evictions counts entries displaced by the LRU policy.
	Evictions uint64 `json:"evictions"`
	// Invalidations counts entries dropped because an enrolment moved a
	// shard version they depend on (shard-scoped staleness, distinct
	// from capacity evictions).
	Invalidations uint64 `json:"invalidations"`
	// Entries is the number of verdicts currently cached.
	Entries int `json:"entries"`
}

// HitRate is the fraction of lookups that avoided a verdict
// computation: (Hits+Shared) / (Hits+Shared+Misses). 0 when no lookups
// have happened.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Shared + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Shared) / float64(total)
}

// Snapshot converts the counters into the uniform stats currency.
func (s CacheStats) Snapshot() stats.Snapshot {
	return stats.New("cache", s)
}

// shardDep is one (shard, version) pair a cached verdict depends on.
type shardDep struct {
	shard   int
	version uint64
}

// verdictDeps records the bank state a verdict was computed against, as
// the set of shard versions it depends on. A verdict accepted by
// classifiers in shards {2, 5} depends on exactly those shards: an
// enrolment into any other shard cannot have produced it differently,
// so the entry stays fresh when other shard versions move. An unknown
// verdict ("no classifier accepted") depends on every shard — any new
// type could claim the fingerprint — so it carries the full vector.
//
// sum is the total enrolment count across all shards at compute time.
// Versions only grow, so a larger sum means "computed against a newer
// bank" — the tiebreak when two leaders race an entry into the cache.
type verdictDeps struct {
	shards []shardDep
	sum    uint64
}

// depsAll returns deps on every shard of the snapshot (unknown
// verdicts).
func depsAll(snapshot []uint64) verdictDeps {
	d := verdictDeps{shards: make([]shardDep, len(snapshot))}
	for i, v := range snapshot {
		d.shards[i] = shardDep{shard: i, version: v}
		d.sum += v
	}
	return d
}

// depsOn returns deps on the given shards (deduplicated) at their
// snapshot versions. Out-of-range shard indices (a bank resized
// mid-flight — not currently possible) degrade to depsAll.
func depsOn(snapshot []uint64, shards []int) verdictDeps {
	seen := make(map[int]bool, len(shards))
	d := verdictDeps{shards: make([]shardDep, 0, len(shards))}
	for _, s := range shards {
		if s < 0 || s >= len(snapshot) {
			return depsAll(snapshot)
		}
		if !seen[s] {
			seen[s] = true
			d.shards = append(d.shards, shardDep{shard: s, version: snapshot[s]})
		}
	}
	sort.Slice(d.shards, func(i, j int) bool { return d.shards[i].shard < d.shards[j].shard })
	for _, v := range snapshot {
		d.sum += v
	}
	return d
}

// fresh reports whether every depended-on shard still sits at the
// version the verdict was computed against.
func (d verdictDeps) fresh(snapshot []uint64) bool {
	for _, sd := range d.shards {
		if sd.shard >= len(snapshot) || snapshot[sd.shard] != sd.version {
			return false
		}
	}
	return true
}

// sameSnapshot reports elementwise equality of two version vectors.
func sameSnapshot(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// flight is one in-flight verdict computation other callers may attach
// to. The leader closes done after storing res/ok.
type flight struct {
	snapshot []uint64
	done     chan struct{}
	res      core.Result
	ok       bool
}

// cacheEntry is one cached identification. It holds the bank's
// core.Result, never the assembled Response: the isolation level,
// advisories and endpoints come from vulndb, which moves without any
// bank version, so the service assesses them per request.
type cacheEntry struct {
	key  uint64
	deps verdictDeps
	res  core.Result
}

// verdictCache is an LRU verdict cache with singleflight collapsing of
// duplicate in-flight fingerprints. Entries are keyed by the canonical
// fingerprint hash and tagged with the shard versions they depend on
// (verdictDeps): an Enroll bumps one shard's version, so exactly the
// entries depending on that shard — verdicts its classifiers produced,
// plus every unknown-type verdict — turn stale and are recomputed on
// next use, while verdicts owned by other shards keep serving. With a
// single-shard bank the vector has one element and the behavior
// reduces to the global-version invalidation of the unsharded design.
//
// The cached Results share slice and map backing storage between
// callers; they are treated as immutable everywhere in the service and
// must not be mutated by callers.
type verdictCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // of *cacheEntry; front = most recent
	byKey   map[uint64]*list.Element
	flights map[uint64]*flight

	hits, shared, misses, evictions, invalidations uint64
}

// newVerdictCache creates a cache holding up to capacity verdicts.
// capacity <= 0 returns nil (caching disabled); callers treat a nil
// cache as compute-always.
func newVerdictCache(capacity int) *verdictCache {
	if capacity <= 0 {
		return nil
	}
	return &verdictCache{
		cap:     capacity,
		lru:     list.New(),
		byKey:   make(map[uint64]*list.Element),
		flights: make(map[uint64]*flight),
	}
}

// beginState classifies what begin found for a key.
type beginState int

const (
	// beginHit: a completed verdict was returned.
	beginHit beginState = iota
	// beginShared: another caller is computing this verdict; wait on the
	// returned flight.
	beginShared
	// beginLeader: the caller must compute the verdict and finish the
	// returned flight.
	beginLeader
)

// begin starts a lookup for key against the caller's bank-version
// snapshot. It returns the cached verdict (beginHit), an in-flight
// computation to wait on (beginShared), or registers the caller as the
// computation leader (beginLeader), who must call finish on the
// returned flight exactly once — even on failure — or waiters block
// forever.
func (c *verdictCache) begin(key uint64, snapshot []uint64) (core.Result, beginState, *flight) {
	var snapSum uint64
	for _, v := range snapshot {
		snapSum += v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		if e.deps.fresh(snapshot) {
			c.lru.MoveToFront(el)
			c.hits++
			return e.res, beginHit, nil
		}
		if e.deps.sum <= snapSum {
			// A shard this verdict depends on moved: drop the entry so
			// the recompute below replaces it (shard-scoped
			// invalidation, not a capacity eviction).
			c.lru.Remove(el)
			delete(c.byKey, key)
			c.invalidations++
		}
		// e.deps.sum > snapSum: the caller read its snapshot before a
		// concurrent Enroll that this entry has already seen. Leave the
		// fresher entry for up-to-date callers and recompute for this
		// one (finish's sum guard will skip the stale insert).
	}
	if f, ok := c.flights[key]; ok && sameSnapshot(f.snapshot, snapshot) {
		c.shared++
		return core.Result{}, beginShared, f
	}
	f := &flight{snapshot: snapshot, done: make(chan struct{})}
	c.flights[key] = f
	c.misses++
	return core.Result{}, beginLeader, f
}

// finish completes a leader's flight: it stores the verdict with its
// shard dependencies (when ok), wakes every waiter, and deregisters the
// flight. ok=false publishes the failure to waiters without caching
// anything.
func (c *verdictCache) finish(key uint64, f *flight, res core.Result, deps verdictDeps, ok bool) {
	c.mu.Lock()
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	insert := ok
	if insert {
		if el, exists := c.byKey[key]; exists {
			// A concurrent leader raced us in. Keep whichever verdict saw
			// the newer bank (larger total enrolment count): a slow
			// pre-Enroll leader must not clobber a fresh post-Enroll
			// entry. (The flight's waiters still get this flight's
			// verdict either way — insert only governs the cache.)
			if el.Value.(*cacheEntry).deps.sum > deps.sum {
				insert = false
			} else {
				c.lru.Remove(el)
				delete(c.byKey, key)
			}
		}
	}
	if insert {
		c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, deps: deps, res: res})
		for c.lru.Len() > c.cap {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.byKey, oldest.Value.(*cacheEntry).key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	f.res = res
	f.ok = ok
	close(f.done)
}

// do returns the verdict for key as seen from the caller's snapshot,
// computing it via compute at most once across concurrent callers.
// compute returns the verdict, the shard dependencies to tag it with,
// and whether it is cacheable. The boolean result reports whether the
// verdict was served without calling compute in this call.
func (c *verdictCache) do(key uint64, snapshot []uint64, compute func() (core.Result, verdictDeps, bool)) (core.Result, bool) {
	for {
		res, state, f := c.begin(key, snapshot)
		switch state {
		case beginHit:
			return res, true
		case beginShared:
			<-f.done
			if f.ok {
				return f.res, true
			}
			// The leader failed to produce a cacheable verdict; compute
			// for ourselves (taking over as leader, or hitting whatever
			// landed meanwhile).
			continue
		default: // beginLeader
			res, deps, ok := compute()
			c.finish(key, f, res, deps, ok)
			return res, false
		}
	}
}

// noteShared accounts one lookup that was deduplicated against a
// leader outside begin's bookkeeping (in-batch duplicates).
func (c *verdictCache) noteShared() {
	c.mu.Lock()
	c.shared++
	c.mu.Unlock()
}

// stats snapshots the counters.
func (c *verdictCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Shared:        c.shared,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       c.lru.Len(),
	}
}
