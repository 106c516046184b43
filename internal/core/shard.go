package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/ml"
)

// Shard is one partition of a logical classifier bank: the view
// ShardedBank scatters identifications through and routes enrolments
// to. A plain in-process *Bank satisfies it directly; the iotssp
// package's RemoteShard satisfies it over the shard wire protocol, so
// one logical bank can mix in-process and cross-process shards without
// the scatter/gather, enroll routing or cache versioning noticing.
//
// The contract mirrors Bank's concurrency guarantees: every method must
// be safe for concurrent use, ClassifyBatch returns each fingerprint's
// accepted types in the shard's own enrolment order, Discriminate's
// reference sampling must be a pure function of (shard, fingerprint)
// so results never depend on call interleaving, Version moves only
// forward and bumps exactly when an enrolment lands, and Types lists
// the shard's device-types in its enrolment order. Remote
// implementations are expected to absorb transient transport failures
// internally (reconnect + retry); a shard that ultimately cannot answer
// reports empty accept sets, which fails open to "unknown device"
// rather than wedging the bank.
type Shard interface {
	// ClassifyBatch runs stage one over full fingerprints: accepted[i]
	// lists the shard's device-types whose classifier accepts fps[i], in
	// shard enrolment order. workers <= 0 selects GOMAXPROCS.
	ClassifyBatch(fps []*fingerprint.Fingerprint, workers int) [][]string
	// Discriminate runs stage two among candidate types this shard owns,
	// returning the best match and every candidate's dissimilarity score.
	Discriminate(f *fingerprint.Fingerprint, candidates []string) (string, map[string]float64)
	// Enroll trains a classifier for a new device-type on this shard.
	Enroll(name string, prints []*fingerprint.Fingerprint) error
	// Remove retires a device-type from this shard: it stops accepting
	// fingerprints and leaves Types, but its reference prints stay as a
	// tombstone so a discrimination that accepted the type before the
	// Remove landed still scores it (Bank.Remove's semantics).
	Remove(name string) error
	// Version is the shard's enrolment version (grows by one per Enroll
	// or Remove).
	Version() uint64
	// Types lists the enrolled device-types in shard enrolment order.
	Types() []string
}

// distanceCounter is the optional Shard refinement the timing
// experiments use; remote shards may not implement it (their edit
// distances run out-of-process) and then count as zero.
type distanceCounter interface {
	DistanceComputations(candidates []string) int
}

// matrixClassifier is the optional Shard fast path for in-process
// shards: they classify one prepared dense sample matrix, shared
// (read-only) across every local shard of a flush, instead of
// re-deriving F′ per shard. Implementations must use the same
// FixedPackets as the ShardedBank's Config (local Banks built by
// NewShardedBank/TrainSharded do).
type matrixClassifier interface {
	ClassifyMatrix(m *ml.SampleMatrix, workers int) [][]string
}

// classifyStatser is the optional Shard refinement exposing the fused
// classify counters; remote shards classify out-of-process and then
// contribute nothing.
type classifyStatser interface {
	ClassifyStats() ClassifyStats
}

// scatterMatrixPool recycles the sample matrices ShardedBank fills once
// per flush and shares across its local shards.
var scatterMatrixPool = sync.Pool{New: func() any { return new(ml.SampleMatrix) }}

// ShardedBank partitions the classifier bank across N independent
// shards. Each shard is a complete Bank owning a disjoint subset of the
// enrolled device-types — its own RWMutex, forest slice and
// reference-fingerprint store — so identifications scatter across
// shards concurrently and an Enroll write-locks only the shard the new
// type routes to, never the whole bank. The per-type one-vs-rest
// classifiers make this sound: a classifier consults nothing outside
// its own training snapshot, so stage one is a union of per-shard
// accept sets and stage two a min-merge of per-shard edit-distance
// scores. Shards are addressed through the Shard interface, so a shard
// may equally be an in-process *Bank or an iotssp.RemoteShard speaking
// the shard wire protocol to a bank hosted in another process.
//
// Two semantic differences from a single Bank, by design:
//
//   - A shard's negative training pool spans only its own types. With
//     one shard this is exactly Bank; with more, classifiers see fewer
//     (but still decorrelated) negatives — the trade that buys
//     write-isolation between shards.
//   - Identification is not atomic with respect to Enroll across
//     shards: each shard is observed consistently, but a concurrent
//     enrolment into another shard may land between the scatter steps.
//     Verdict caches detect this through the per-shard version vector
//     (Versions) rather than by locking the world.
//
// A ShardedBank is safe for concurrent use. With a single shard its
// results are bit-identical to the wrapped Bank's.
type ShardedBank struct {
	cfg    Config
	shards []Shard

	// mu guards the global enrolment bookkeeping: order, pos, owner and
	// reserved. Shard contents are guarded by each shard's own lock.
	mu    sync.RWMutex
	order []string       // global enrolment order across shards
	pos   map[string]int // type -> index in order
	owner map[string]int // type -> shard
	// reserved blocks duplicate concurrent enrolments of one name while
	// its shard trains outside mu.
	reserved map[string]struct{}
}

// NewShardedBank creates an empty bank of n shards (n < 1 selects 1).
// Every shard shares the same Config — in particular the same Seed, so
// discrimination reference sampling stays a pure function of (bank,
// fingerprint) regardless of which shard owns a type.
func NewShardedBank(cfg Config, n int) *ShardedBank {
	if n < 1 {
		n = 1
	}
	cfg = cfg.withDefaults()
	sb := &ShardedBank{
		cfg:      cfg,
		shards:   make([]Shard, n),
		pos:      make(map[string]int),
		owner:    make(map[string]int),
		reserved: make(map[string]struct{}),
	}
	for i := range sb.shards {
		sb.shards[i] = NewBank(cfg)
	}
	return sb
}

// NewShardedBankFrom assembles a logical bank over pre-built shards —
// typically a mix of in-process *Bank shards and remote-shard clients
// hosting the rest of the partition in other processes. The shards must
// carry a disjoint type partition produced the way TrainSharded deals
// types out (round-robin over the sorted type names), because the
// global enrolment order is reconstructed by interleaving the shards'
// own enrolment orders round-robin; with that partition the assembled
// bank's verdicts are bit-equal to the all-local TrainSharded bank's.
func NewShardedBankFrom(cfg Config, shards []Shard) (*ShardedBank, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: assembling sharded bank from zero shards")
	}
	cfg = cfg.withDefaults()
	sb := &ShardedBank{
		cfg:      cfg,
		shards:   append([]Shard(nil), shards...),
		pos:      make(map[string]int),
		owner:    make(map[string]int),
		reserved: make(map[string]struct{}),
	}
	perShard := make([][]string, len(shards))
	for s, shard := range shards {
		perShard[s] = shard.Types()
		if len(perShard[s]) == 0 {
			// A trained partition never has an empty shard; a remote shard
			// reporting zero types is almost certainly unreachable, and
			// assembling without its partition would silently fix a global
			// order that excludes every type it owns.
			return nil, fmt.Errorf("core: shard %d reports no enrolled types (unreachable or untrained?)", s)
		}
	}
	for k := 0; ; k++ {
		added := false
		for s := range perShard {
			if k >= len(perShard[s]) {
				continue
			}
			added = true
			name := perShard[s][k]
			if _, dup := sb.owner[name]; dup {
				return nil, fmt.Errorf("core: device-type %q enrolled on two shards", name)
			}
			sb.owner[name] = s
			sb.pos[name] = len(sb.order)
			sb.order = append(sb.order, name)
		}
		if !added {
			break
		}
	}
	return sb, nil
}

// Shard returns the s-th shard (for serving an in-process shard behind
// a wire endpoint, or inspecting a partition).
func (sb *ShardedBank) Shard(s int) Shard { return sb.shards[s] }

// TrainSharded builds an n-shard bank from a training set: types are
// assigned to shards least-loaded-first in sorted-name order (so the
// partition is deterministic regardless of map iteration) and every
// shard trains independently — and concurrently — on its own subset.
func TrainSharded(cfg Config, n int, trainingSet map[string][]*fingerprint.Fingerprint) (*ShardedBank, error) {
	sb := NewShardedBank(cfg, n)
	names := make([]string, 0, len(trainingSet))
	for name := range trainingSet {
		names = append(names, name)
	}
	sort.Strings(names)

	perShard := make([]map[string][]*fingerprint.Fingerprint, len(sb.shards))
	for i := range perShard {
		perShard[i] = make(map[string][]*fingerprint.Fingerprint)
	}
	for i, name := range names {
		s := i % len(sb.shards) // round-robin == least-loaded with sorted arrival
		perShard[s][name] = trainingSet[name]
		sb.owner[name] = s
		sb.pos[name] = i
	}
	sb.order = names

	var wg sync.WaitGroup
	errs := make([]error, len(sb.shards))
	for s := range sb.shards {
		if len(perShard[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			bank, err := Train(cfg, perShard[s])
			if err != nil {
				errs[s] = err
				return
			}
			sb.shards[s] = bank
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sb, nil
}

// Shards returns the shard count.
func (sb *ShardedBank) Shards() int { return len(sb.shards) }

// Len returns the number of enrolled device-types across all shards.
func (sb *ShardedBank) Len() int {
	sb.mu.RLock()
	defer sb.mu.RUnlock()
	return len(sb.order)
}

// Types returns the enrolled device-type names in global enrolment
// order.
func (sb *ShardedBank) Types() []string {
	sb.mu.RLock()
	defer sb.mu.RUnlock()
	return append([]string(nil), sb.order...)
}

// ShardTypes returns the types owned by one shard, in that shard's
// enrolment order.
func (sb *ShardedBank) ShardTypes(s int) []string {
	return sb.shards[s].Types()
}

// ShardOf reports which shard owns an enrolled device-type.
func (sb *ShardedBank) ShardOf(name string) (int, bool) {
	sb.mu.RLock()
	defer sb.mu.RUnlock()
	s, ok := sb.owner[name]
	return s, ok
}

// Versions returns the per-shard enrolment version vector. Each
// element moves independently: enrolling a type bumps only its shard's
// version, so a verdict cache can invalidate the verdicts that depend
// on that shard and keep serving the rest. The snapshot is not atomic
// across shards — a concurrent Enroll may be visible in one element
// and not another — which is safe for staleness detection because
// versions only grow.
func (sb *ShardedBank) Versions() []uint64 {
	return sb.AppendVersions(make([]uint64, 0, len(sb.shards)))
}

// AppendVersions appends the version vector to dst and returns the
// extended slice, so a caller that snapshots per batch can reuse one
// buffer.
func (sb *ShardedBank) AppendVersions(dst []uint64) []uint64 {
	for _, shard := range sb.shards {
		dst = append(dst, shard.Version())
	}
	return dst
}

// Version returns the total enrolment count across shards (the sum of
// Versions). It is a convenience for display; caches should use the
// vector.
func (sb *ShardedBank) Version() uint64 {
	var sum uint64
	for _, shard := range sb.shards {
		sum += shard.Version()
	}
	return sum
}

// Enroll trains a classifier for a new device-type on the least-loaded
// shard. Only that shard is write-locked — identifications against
// every other shard proceed concurrently with the training — and only
// that shard's version is bumped, so shard-aware verdict caches
// invalidate per-shard instead of globally.
func (sb *ShardedBank) Enroll(name string, prints []*fingerprint.Fingerprint) error {
	sb.mu.Lock()
	if _, dup := sb.owner[name]; dup {
		sb.mu.Unlock()
		return fmt.Errorf("core: device-type %q already enrolled", name)
	}
	if _, dup := sb.reserved[name]; dup {
		sb.mu.Unlock()
		return fmt.Errorf("core: device-type %q already enrolling", name)
	}
	s := sb.leastLoadedLocked()
	sb.reserved[name] = struct{}{}
	sb.mu.Unlock()

	err := sb.shards[s].Enroll(name, prints)
	if err != nil {
		// Reconcile against the shard's authoritative state. A remote
		// enrolment whose response was lost to a transport failure may
		// have landed on the shard anyway — the client's retry then
		// reports "already enrolled" even though no owner is on record,
		// and without reconciliation the logical bank would diverge from
		// its own shard forever (the type classifies but never
		// discriminates). If the shard lists the type, the enrolment
		// succeeded.
		for _, have := range sb.shards[s].Types() {
			if have == name {
				err = nil
				break
			}
		}
	}

	sb.mu.Lock()
	delete(sb.reserved, name)
	if err == nil {
		sb.owner[name] = s
		sb.pos[name] = len(sb.order)
		sb.order = append(sb.order, name)
	}
	sb.mu.Unlock()
	return err
}

// leastLoadedLocked picks the shard with the fewest types (including
// reservations in flight), ties toward the lower index. Callers hold
// mu.
func (sb *ShardedBank) leastLoadedLocked() int {
	load := make([]int, len(sb.shards))
	for _, s := range sb.owner {
		load[s]++
	}
	// Reservations count toward load so concurrent enrolments spread
	// out: each reservation was routed to what was then the lightest
	// shard, so charging the lightest shard per reservation reproduces
	// the routing.
	pick := func() int {
		best := 0
		for i, l := range load {
			if l < load[best] {
				best = i
			}
		}
		return best
	}
	for range sb.reserved {
		load[pick()]++
	}
	return pick()
}

// Identify runs the two-stage pipeline across the shards: every shard
// classifies the fixed-size fingerprint, the accept sets merge in
// global enrolment order, and a multi-accept is discriminated by
// min-merging each owning shard's edit-distance scores.
func (sb *ShardedBank) Identify(f *fingerprint.Fingerprint) Result {
	// Scatter concurrently even for one fingerprint: with remote shards
	// a sequential loop would pay one wire round-trip per shard in
	// series.
	one := []*fingerprint.Fingerprint{f}
	perShard := make([][]string, len(sb.shards))
	if len(sb.shards) == 1 {
		perShard[0] = sb.shards[0].ClassifyBatch(one, 1)[0]
	} else {
		var wg sync.WaitGroup
		for s := range sb.shards {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				perShard[s] = sb.shards[s].ClassifyBatch(one, 1)[0]
			}(s)
		}
		wg.Wait()
	}
	accepted := sb.mergeAccepts(perShard)
	switch len(accepted) {
	case 0:
		return Result{Stage: StageNone}
	case 1:
		return Result{Known: true, Type: accepted[0], Accepted: accepted, Stage: StageClassification}
	}
	scores := make(map[string]float64, len(accepted))
	groups := sb.groupByShard(accepted)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s, cands := range groups {
		if len(cands) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, cands []string) {
			defer wg.Done()
			_, shardScores := sb.shards[s].Discriminate(f, cands)
			mu.Lock()
			for name, score := range shardScores {
				scores[name] = score
			}
			mu.Unlock()
		}(s, cands)
	}
	wg.Wait()
	return sb.resolveScores(accepted, scores)
}

// IdentifyBatch identifies every fingerprint of fps, scattering the
// whole batch across the shards concurrently — stage one runs each
// shard's forests over all samples in parallel with the other shards,
// stage two fans the (fingerprint, shard) discrimination tasks of
// multi-accept samples across a worker pool — and gathers results in
// input order. With one shard, results are bit-identical to
// Bank.IdentifyBatch (and so to sequential Identify): accept merging
// preserves enrolment order and reference sampling stays a pure
// function of (bank, fingerprint).
func (sb *ShardedBank) IdentifyBatch(fps []*fingerprint.Fingerprint, workers int) []Result {
	out := make([]Result, len(fps))
	if len(fps) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Scatter stage one: every shard classifies the whole batch
	// concurrently. The worker budget is split across the shards (each
	// gets ~workers/shards for its internal sample fan-out, minimum 1)
	// so the scatter's total goroutine count stays near the requested
	// budget rather than multiplying by the shard count. Local shards
	// share one pooled dense sample matrix, filled once per flush
	// in place (they share the bank's FixedPackets) and read
	// concurrently by every shard's fused pass; remote shards take the
	// full fingerprints, which is what lets them ship the batch over
	// the packed wire codec and derive F′ on their side.
	var m *ml.SampleMatrix
	for _, shard := range sb.shards {
		if _, ok := shard.(matrixClassifier); ok {
			m = scatterMatrixPool.Get().(*ml.SampleMatrix)
			m.Reset(len(fps), sb.cfg.FixedPackets*features.NumFeatures)
			for i, f := range fps {
				f.FixedNInto(m.Row(i), sb.cfg.FixedPackets)
			}
			break
		}
	}
	perShardWorkers := workers/len(sb.shards) + 1
	perShard := make([][][]string, len(sb.shards))
	var wg sync.WaitGroup
	for s := range sb.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if mc, ok := sb.shards[s].(matrixClassifier); ok {
				perShard[s] = mc.ClassifyMatrix(m, perShardWorkers)
			} else {
				perShard[s] = sb.shards[s].ClassifyBatch(fps, perShardWorkers)
			}
		}(s)
	}
	wg.Wait()
	if m != nil {
		scatterMatrixPool.Put(m)
	}

	// Gather: merge each fingerprint's accept sets in global enrolment
	// order and collect the multi-accept discrimination tasks.
	type task struct {
		fp    int
		shard int
		cands []string
	}
	var tasks []task
	scores := make([]map[string]float64, len(fps))
	accepted := make([][]string, len(fps))
	for i := range fps {
		shardAccepts := make([][]string, len(sb.shards))
		for s := range sb.shards {
			shardAccepts[s] = perShard[s][i]
		}
		accepted[i] = sb.mergeAccepts(shardAccepts)
		if len(accepted[i]) > 1 {
			scores[i] = make(map[string]float64, len(accepted[i]))
			for s, cands := range sb.groupByShard(accepted[i]) {
				if len(cands) > 0 {
					tasks = append(tasks, task{fp: i, shard: s, cands: cands})
				}
			}
		}
	}

	// Scatter stage two: discrimination tasks through an atomic cursor
	// (cost varies wildly per task), each shard scoring only its own
	// candidates against its own reference store.
	if len(tasks) > 0 {
		tw := workers
		if tw > len(tasks) {
			tw = len(tasks)
		}
		var mu sync.Mutex
		var next atomic.Int64
		var twg sync.WaitGroup
		for w := 0; w < tw; w++ {
			twg.Add(1)
			go func() {
				defer twg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= len(tasks) {
						return
					}
					t := tasks[j]
					_, shardScores := sb.shards[t.shard].Discriminate(fps[t.fp], t.cands)
					mu.Lock()
					for name, score := range shardScores {
						scores[t.fp][name] = score
					}
					mu.Unlock()
				}
			}()
		}
		twg.Wait()
	}

	// Resolve in input order.
	for i := range fps {
		switch len(accepted[i]) {
		case 0:
			out[i] = Result{Stage: StageNone}
		case 1:
			out[i] = Result{Known: true, Type: accepted[i][0], Accepted: accepted[i], Stage: StageClassification}
		default:
			out[i] = sb.resolveScores(accepted[i], scores[i])
		}
	}
	return out
}

// mergeAccepts merges per-shard accept lists into one list in global
// enrolment order. Types enrolled concurrently with the scatter (absent
// from pos) keep shard-local order after the known ones. A type
// accepted by two shards at once — a remote enrolment that landed but
// whose ack was lost, retried onto another shard — merges to a single
// occurrence, so it cannot turn a clean single-accept into a spurious
// discrimination. The accept sets are
// tiny (almost always 0–3 names), so duplicate detection is a linear
// scan of the merged list rather than a map allocation on the hot path.
func (sb *ShardedBank) mergeAccepts(perShard [][]string) []string {
	n := 0
	for _, a := range perShard {
		n += len(a)
	}
	if n == 0 {
		return nil
	}
	merged := make([]string, 0, n)
	for _, a := range perShard {
	next:
		for _, name := range a {
			for _, have := range merged {
				if have == name {
					continue next
				}
			}
			merged = append(merged, name)
		}
	}
	sb.mu.RLock()
	sort.SliceStable(merged, func(i, j int) bool {
		pi, iok := sb.pos[merged[i]]
		pj, jok := sb.pos[merged[j]]
		if iok && jok {
			return pi < pj
		}
		return iok && !jok
	})
	sb.mu.RUnlock()
	return merged
}

// groupByShard splits a candidate list by owning shard, preserving
// order within each group.
func (sb *ShardedBank) groupByShard(candidates []string) map[int][]string {
	sb.mu.RLock()
	defer sb.mu.RUnlock()
	groups := make(map[int][]string, len(sb.shards))
	for _, name := range candidates {
		if s, ok := sb.owner[name]; ok {
			groups[s] = append(groups[s], name)
		}
	}
	return groups
}

// resolveScores picks the discrimination winner from merged per-shard
// scores: lowest dissimilarity wins, ties break toward the
// earlier-enrolled type (candidates arrive in global enrolment order).
func (sb *ShardedBank) resolveScores(candidates []string, scores map[string]float64) Result {
	best := ""
	bestScore := 0.0
	for _, name := range candidates {
		s, ok := scores[name]
		if !ok {
			continue
		}
		if best == "" || s < bestScore {
			best = name
			bestScore = s
		}
	}
	return Result{
		Known:    true,
		Type:     best,
		Accepted: candidates,
		Scores:   scores,
		Stage:    StageDiscrimination,
	}
}

// DistanceComputations sums the per-shard edit-distance computation
// counts for a discrimination among the given candidates. Shards that
// do not expose the count (remote shards run their edit distances
// out-of-process) contribute zero.
func (sb *ShardedBank) DistanceComputations(candidates []string) int {
	total := 0
	for s, cands := range sb.groupByShard(candidates) {
		if dc, ok := sb.shards[s].(distanceCounter); ok {
			total += dc.DistanceComputations(cands)
		}
	}
	return total
}

// ClassifyStats sums the fused classify counters across the local
// shards (remote shards classify out-of-process and contribute zero).
func (sb *ShardedBank) ClassifyStats() ClassifyStats {
	var out ClassifyStats
	for _, shard := range sb.shards {
		if cs, ok := shard.(classifyStatser); ok {
			s := cs.ClassifyStats()
			out.Fingerprints += s.Fingerprints
			out.Nanos += s.Nanos
		}
	}
	return out
}

// The in-process Bank is the canonical Shard implementation.
var _ Shard = (*Bank)(nil)
var _ distanceCounter = (*Bank)(nil)
var _ matrixClassifier = (*Bank)(nil)
var _ classifyStatser = (*Bank)(nil)
