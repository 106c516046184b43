package iotssp

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/fingerprint"
	"repro/internal/vulndb"
)

// v is shorthand for a version-vector snapshot.
func v(versions ...uint64) []uint64 { return versions }

// computeAll returns a compute func whose verdict depends on every
// shard of the snapshot (the single-shard common case).
func computeAll(typ string, snapshot []uint64) func() (core.Result, verdictDeps, bool) {
	return func() (core.Result, verdictDeps, bool) {
		return core.Result{Type: typ}, depsAll(snapshot), true
	}
}

func TestCacheHitAndLRUEviction(t *testing.T) {
	c := newVerdictCache(2)
	s := v(1)

	if r, fromCache := c.do(1, s, computeAll("a", s)); fromCache || r.Type != "a" {
		t.Fatalf("first lookup: %+v fromCache=%v", r, fromCache)
	}
	if r, fromCache := c.do(1, s, computeAll("WRONG", s)); !fromCache || r.Type != "a" {
		t.Fatalf("second lookup should hit: %+v fromCache=%v", r, fromCache)
	}

	c.do(2, s, computeAll("b", s))
	c.do(3, s, computeAll("c", s)) // capacity 2: key 1 is the LRU victim
	st := c.stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after overflow: %+v", st)
	}
	if _, fromCache := c.do(1, s, computeAll("a2", s)); fromCache {
		t.Error("evicted key served from cache")
	}

	// Recency: touching key 3 must make key 1's re-insert evict key 2.
	c.do(3, s, computeAll("WRONG", s))
	c.do(1, s, computeAll("WRONG", s)) // hit (re-inserted above)
	if _, fromCache := c.do(2, s, computeAll("b2", s)); fromCache {
		t.Error("LRU victim (key 2) still cached")
	}
}

func TestCacheVersionInvalidatesEntry(t *testing.T) {
	c := newVerdictCache(4)
	old := v(1)
	c.do(7, old, computeAll("old", old))
	grown := v(2)
	r, fromCache := c.do(7, grown, computeAll("new", grown))
	if fromCache || r.Type != "new" {
		t.Fatalf("stale-version entry served: %+v fromCache=%v", r, fromCache)
	}
	// The recompute replaced the stale entry at the new version.
	if r, fromCache := c.do(7, grown, computeAll("", grown)); !fromCache || r.Type != "new" {
		t.Fatalf("recomputed entry not cached: %+v fromCache=%v", r, fromCache)
	}
	st := c.stats()
	if st.Evictions != 0 {
		t.Errorf("version replacement counted as eviction: %+v", st)
	}
	if st.Invalidations != 1 {
		t.Errorf("stale drop not counted as invalidation: %+v", st)
	}
}

// TestCacheShardScopedInvalidation is the heart of the sharded design:
// entries depending only on shard 0 survive a version bump of shard 1,
// entries depending on shard 1 (and unknown-verdict entries, which
// depend on every shard) turn stale.
func TestCacheShardScopedInvalidation(t *testing.T) {
	c := newVerdictCache(8)
	before := v(3, 5)
	// Entry 10 depends on shard 0 only; entry 11 on shard 1 only;
	// entry 12 is an unknown verdict (depends on both).
	c.do(10, before, func() (core.Result, verdictDeps, bool) {
		return core.Result{Type: "s0"}, depsOn(before, []int{0}), true
	})
	c.do(11, before, func() (core.Result, verdictDeps, bool) {
		return core.Result{Type: "s1"}, depsOn(before, []int{1}), true
	})
	c.do(12, before, func() (core.Result, verdictDeps, bool) {
		return core.Result{}, depsAll(before), true
	})

	// Enrolment into shard 1: its version moves, shard 0's does not.
	after := v(3, 6)
	if r, fromCache := c.do(10, after, computeAll("RECOMPUTED", after)); !fromCache || r.Type != "s0" {
		t.Errorf("shard-0 entry invalidated by shard-1 enrolment: %+v fromCache=%v", r, fromCache)
	}
	if _, fromCache := c.do(11, after, computeAll("s1b", after)); fromCache {
		t.Error("shard-1 entry survived shard-1 enrolment")
	}
	if _, fromCache := c.do(12, after, computeAll("", after)); fromCache {
		t.Error("unknown-verdict entry survived enrolment")
	}
	st := c.stats()
	if st.Invalidations != 2 {
		t.Errorf("want exactly 2 shard-scoped invalidations: %+v", st)
	}
	if st.Hits != 1 {
		t.Errorf("want the shard-0 entry to keep hitting: %+v", st)
	}
}

// TestCacheMultiShardDeps: an entry depending on two shards goes stale
// when either moves, and stays fresh when a third does.
func TestCacheMultiShardDeps(t *testing.T) {
	c := newVerdictCache(8)
	base := v(1, 1, 1)
	insert := func() {
		c.do(20, base, func() (core.Result, verdictDeps, bool) {
			return core.Result{Type: "multi"}, depsOn(base, []int{0, 2}), true
		})
	}
	insert()
	if _, fromCache := c.do(20, v(1, 9, 1), computeAll("x", v(1, 9, 1))); !fromCache {
		t.Error("entry depending on shards {0,2} invalidated by shard 1")
	}
	c = newVerdictCache(8)
	insert()
	if _, fromCache := c.do(20, v(2, 1, 1), computeAll("x", v(2, 1, 1))); fromCache {
		t.Error("entry depending on shard 0 survived shard-0 bump")
	}
	c = newVerdictCache(8)
	insert()
	if _, fromCache := c.do(20, v(1, 1, 2), computeAll("x", v(1, 1, 2))); fromCache {
		t.Error("entry depending on shard 2 survived shard-2 bump")
	}
}

// TestCacheNewerEntryWinsInsertRace: a leader that computed against an
// older bank must not clobber an entry computed against a newer one.
func TestCacheNewerEntryWinsInsertRace(t *testing.T) {
	c := newVerdictCache(4)
	oldSnap := v(1)
	newSnap := v(2)
	// Old leader starts first but finishes last.
	_, _, fOld := c.begin(30, oldSnap)
	_, _, fNew := c.begin(30, newSnap) // different snapshot: a second flight
	c.finish(30, fNew, core.Result{Type: "fresh"}, depsAll(newSnap), true)
	c.finish(30, fOld, core.Result{Type: "stale"}, depsAll(oldSnap), true)
	if r, fromCache := c.do(30, newSnap, computeAll("x", newSnap)); !fromCache || r.Type != "fresh" {
		t.Fatalf("stale leader clobbered fresh entry: %+v fromCache=%v", r, fromCache)
	}
}

func TestCacheSingleflightCollapsesStorm(t *testing.T) {
	c := newVerdictCache(8)
	const callers = 32
	gate := make(chan struct{})
	var computes int
	var mu sync.Mutex
	s := v(1)

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _ := c.do(42, s, func() (core.Result, verdictDeps, bool) {
				<-gate // hold the flight open until every caller has piled in
				mu.Lock()
				computes++
				mu.Unlock()
				return core.Result{Type: "t"}, depsAll(s), true
			})
			if r.Type != "t" {
				t.Errorf("storm caller got %+v", r)
			}
		}()
	}
	// Wait until all callers are either the leader or attached waiters.
	for {
		st := c.stats()
		if st.Misses+st.Shared+st.Hits == callers {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("storm computed %d times, want 1", computes)
	}
	st := c.stats()
	if st.Misses != 1 || st.Shared+st.Hits != callers-1 {
		t.Errorf("storm stats: %+v", st)
	}
}

func TestCacheFailedFlightNotCached(t *testing.T) {
	c := newVerdictCache(4)
	s := v(1)
	c.do(9, s, func() (core.Result, verdictDeps, bool) {
		return core.Result{}, verdictDeps{}, false
	})
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("uncacheable verdict cached: %+v", st)
	}
	r, fromCache := c.do(9, s, computeAll("ok", s))
	if fromCache || r.Type != "ok" {
		t.Fatalf("after failed flight: %+v fromCache=%v", r, fromCache)
	}
}

func TestCacheSharedWaiterRetriesAfterFailedLeader(t *testing.T) {
	c := newVerdictCache(4)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	done := make(chan core.Result, 1)
	s := v(1)

	go func() {
		c.do(5, s, func() (core.Result, verdictDeps, bool) {
			close(leaderIn)
			<-release
			return core.Result{}, verdictDeps{}, false // leader fails; nothing cached
		})
	}()
	<-leaderIn
	go func() {
		r, _ := c.do(5, s, computeAll("second", s))
		done <- r
	}()
	// Let the waiter attach, then fail the leader.
	for c.stats().Shared == 0 {
		runtime.Gosched()
	}
	close(release)
	if r := <-done; r.Type != "second" {
		t.Fatalf("waiter after failed leader got %+v", r)
	}
}

func TestServiceCacheBypassOnEnroll(t *testing.T) {
	svc, ds := testService(t)
	fp := ds["Aria"][0]

	first := svc.Identify("02:aa:00:00:00:01", fp)
	if first.Error != "" {
		t.Fatal(first.Error)
	}
	again := svc.Identify("02:aa:00:00:00:02", fp)
	st := svc.CacheStats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("warm repeat: %+v", st)
	}
	if again.DeviceType != first.DeviceType {
		t.Fatalf("cached verdict diverged: %q vs %q", again.DeviceType, first.DeviceType)
	}

	// Enrolling a new type bumps the bank version: the cached verdict
	// must not be served against the grown bank (a single-shard bank
	// depends every verdict on its one shard).
	traces, err := devices.GenerateRuns("D-LinkCam", devices.DefaultEnv(), 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	var prints []*fingerprint.Fingerprint
	for _, tr := range traces {
		prints = append(prints, tr.Fingerprint())
	}
	if err := svc.Bank().(*core.Bank).Enroll("D-LinkCam", prints); err != nil {
		t.Fatal(err)
	}
	svc.Identify("02:aa:00:00:00:03", fp)
	st = svc.CacheStats()
	if st.Misses != 2 {
		t.Fatalf("post-enroll identify served stale verdict: %+v", st)
	}
}

// TestServiceShardScopedEnrollKeepsOtherShardVerdicts is the
// end-to-end shard-scoped invalidation property over a real
// ShardedBank: enrolling into one shard invalidates only the cached
// verdicts that depend on it.
func TestServiceShardScopedEnrollKeepsOtherShardVerdicts(t *testing.T) {
	env := devices.DefaultEnv()
	// Nine types round-robin across two shards (5 on shard 0, 4 on
	// shard 1), so the canary enrolment below routes to the
	// less-loaded shard 1 and shard-0-only verdicts must survive it.
	names := []string{
		"Aria", "D-LinkCam", "D-LinkSiren", "EdimaxCam", "HueBridge",
		"Lightify", "MAXGateway", "SmarterCoffee", "Withings",
	}
	train := make(map[string][]*fingerprint.Fingerprint)
	probes := make(map[string]*fingerprint.Fingerprint)
	for _, name := range names {
		traces, err := devices.GenerateRuns(name, env, 5, 9)
		if err != nil {
			t.Fatal(err)
		}
		var prints []*fingerprint.Fingerprint
		for _, tr := range traces {
			prints = append(prints, tr.Fingerprint())
		}
		train[name] = prints[:8]
		probes[name] = prints[8]
	}
	cfg := core.Default()
	cfg.Forest.Trees = 25
	cfg.Seed = 3
	bank, err := core.TrainSharded(cfg, 2, train)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(bank, ServiceConfig{DB: vulndb.Seeded()})

	// Warm the cache and record which shard each probe's verdict
	// depends on (single-accept verdicts depend on one shard).
	dep := make(map[string][]int)
	for name, fp := range probes {
		resp := svc.Identify("02:cc:00:00:00:01", fp)
		if resp.Error != "" {
			t.Fatalf("%s: %s", name, resp.Error)
		}
		res := bank.Identify(fp)
		if !res.Known {
			dep[name] = []int{0, 1}
			continue
		}
		var shards []int
		seen := map[int]bool{}
		for _, accepted := range res.Accepted {
			if s, ok := bank.ShardOf(accepted); ok && !seen[s] {
				seen[s] = true
				shards = append(shards, s)
			}
		}
		dep[name] = shards
	}
	st0 := svc.CacheStats()

	// Enroll a new type; it routes to one shard.
	traces, err := devices.GenerateRuns("WeMoSwitch", env, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	var prints []*fingerprint.Fingerprint
	for _, tr := range traces {
		prints = append(prints, tr.Fingerprint())
	}
	if err := bank.Enroll("WeMoSwitch", prints); err != nil {
		t.Fatal(err)
	}
	enrolledShard, ok := bank.ShardOf("WeMoSwitch")
	if !ok {
		t.Fatal("enrolled type has no shard")
	}

	wantHits, wantMisses := 0, 0
	for name, fp := range probes {
		dependent := false
		for _, s := range dep[name] {
			if s == enrolledShard {
				dependent = true
			}
		}
		if dependent {
			wantMisses++
		} else {
			wantHits++
		}
		svc.Identify("02:cc:00:00:00:02", fp)
	}
	if wantHits == 0 {
		t.Fatal("degenerate partition: every probe depends on the enrolled shard")
	}
	st1 := svc.CacheStats()
	if got := st1.Hits - st0.Hits; got != uint64(wantHits) {
		t.Errorf("hits after shard-scoped enroll = %d, want %d (other-shard verdicts must survive)", got, wantHits)
	}
	if got := st1.Misses - st0.Misses; got != uint64(wantMisses) {
		t.Errorf("misses after shard-scoped enroll = %d, want %d", got, wantMisses)
	}
	if got := st1.Invalidations - st0.Invalidations; got != uint64(wantMisses) {
		t.Errorf("invalidations = %d, want %d (exactly the dependent verdicts)", got, wantMisses)
	}
}

func TestServiceSingleflightAcrossHandleCalls(t *testing.T) {
	svc, ds := testService(t)
	fp := ds["HueBridge"][0]
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := svc.Identify("02:ab:00:00:00:01", fp)
			if resp.Error != "" || resp.DeviceType != "HueBridge" {
				t.Errorf("storm response: %+v", resp)
			}
		}()
	}
	wg.Wait()
	st := svc.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("concurrent Identify storm computed %d verdicts, want 1 (%+v)", st.Misses, st)
	}
	if st.Hits+st.Shared != callers-1 {
		t.Errorf("storm stats do not add up: %+v", st)
	}
}

func TestIdentifyBatchDeduplicatesWithinBatch(t *testing.T) {
	svc, ds := testService(t)
	fp := ds["Aria"][0]
	other := ds["HueBridge"][0]
	macs := []string{"02:01:00:00:00:01", "02:01:00:00:00:02", "02:01:00:00:00:03", "02:01:00:00:00:04"}
	fps := []*fingerprint.Fingerprint{fp, other, fp, fp}
	out := svc.IdentifyBatch(macs, fps, 2)
	for i, resp := range out {
		if resp.Error != "" {
			t.Fatalf("response %d: %s", i, resp.Error)
		}
		if resp.MAC != macs[i] {
			t.Errorf("response %d MAC = %q, want %q", i, resp.MAC, macs[i])
		}
	}
	if out[0].DeviceType != "Aria" || out[2].DeviceType != "Aria" || out[3].DeviceType != "Aria" {
		t.Errorf("duplicate fingerprints diverged: %+v", out)
	}
	if out[1].DeviceType != "HueBridge" {
		t.Errorf("probe 1 identified as %q", out[1].DeviceType)
	}
	st := svc.CacheStats()
	if st.Misses != 2 {
		t.Errorf("batch computed %d distinct verdicts, want 2 (%+v)", st.Misses, st)
	}
	if st.Shared != 2 {
		t.Errorf("in-batch duplicates not collapsed: %+v", st)
	}
}

// TestAdvisoryRelevelsCachedVerdict: the verdict cache holds
// identification results, never levels, so an advisory added after a
// Trusted type's fingerprints were cached re-levels the very next
// verdict — on the single and the batch path, served from the cache
// without a recompute and without any bank version moving.
func TestAdvisoryRelevelsCachedVerdict(t *testing.T) {
	base, ds := testService(t)
	db := vulndb.Seeded()
	svc := NewService(base.Bank(), ServiceConfig{DB: db})
	single, batched := ds["Aria"][0], ds["Aria"][1]
	macs := []string{"02:00:00:00:0a:01"}
	if r := svc.Identify(macs[0], single); r.DeviceType != "Aria" || r.Level != "trusted" {
		t.Fatalf("before the advisory: %s at %s, want Aria at trusted", r.DeviceType, r.Level)
	}
	if r := svc.IdentifyBatch(macs, []*fingerprint.Fingerprint{batched}, 1)[0]; r.DeviceType != "Aria" || r.Level != "trusted" {
		t.Fatalf("before the advisory (batch): %s at %s, want Aria at trusted", r.DeviceType, r.Level)
	}
	st0 := svc.CacheStats()

	db.Add("Aria", vulndb.Vulnerability{ID: "CVE-TEST-0001", Summary: "late advisory", CVSS: 7.5, Year: 2017})
	for name, r := range map[string]Response{
		"Identify":      svc.Identify(macs[0], single),
		"IdentifyBatch": svc.IdentifyBatch(macs, []*fingerprint.Fingerprint{batched}, 1)[0],
	} {
		if r.Level != "restricted" || len(r.Vulnerabilities) != 1 || r.Vulnerabilities[0] != "CVE-TEST-0001" {
			t.Errorf("%s after the advisory: level %s, advisories %v; want restricted by CVE-TEST-0001", name, r.Level, r.Vulnerabilities)
		}
	}
	if st1 := svc.CacheStats(); st1.Hits-st0.Hits != 2 || st1.Misses != st0.Misses {
		t.Errorf("re-levelling recomputed instead of serving the cached identification: before %+v, after %+v", st0, st1)
	}
}
