// Package core implements IoT Sentinel's device-type identification
// pipeline, the paper's primary contribution (§IV-B).
//
// Identification is two-fold. Stage one is a bank of per-type binary
// Random Forest classifiers over the fixed-size fingerprint F′: each
// classifier votes whether an unknown fingerprint matches its
// device-type, so a fingerprint may be accepted by zero, one, or several
// classifiers. Stage two discriminates multiple accepts by comparing the
// full variable-length fingerprint F against reference fingerprints of
// each accepted type with the normalized Damerau-Levenshtein edit
// distance; the lowest dissimilarity score wins.
//
// The one-classifier-per-type structure is what lets the system scale and
// adapt: enrolling a new device-type trains one new classifier without
// touching (or relearning) the existing ones, and a fingerprint rejected
// by every classifier is reported as an unknown type rather than being
// forced into the nearest known class.
package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/editdist"
	"repro/internal/features"
	"repro/internal/fingerprint"
	"repro/internal/ml"
)

// BankConfig is the intention-revealing name for this package's Config:
// the experiments and examples assemble banks, gateways and dataplanes
// side by side, and three bare `Config`s at one call site read as
// nothing. New code should say core.BankConfig.
type BankConfig = Config

// Config tunes the identification pipeline. The zero value selects the
// paper's parameters via Default.
type Config struct {
	// Forest configures the per-type Random Forests. Forest.Seed is a
	// base seed; each enrolled type derives its own seed from it so
	// training is deterministic yet decorrelated across types.
	Forest ml.ForestConfig
	// NegativeRatio is the number of negative training fingerprints
	// sampled per positive one (the paper uses 10·n to sidestep
	// imbalanced-class learning, §VI-B). 0 means 10.
	NegativeRatio int
	// DiscriminationRefs is the number of reference fingerprints per
	// candidate type compared in stage two (the paper uses 5). 0 means 5.
	DiscriminationRefs int
	// AcceptThreshold is the forest vote fraction at or above which a
	// classifier accepts a fingerprint. 0 means 0.5.
	AcceptThreshold float64
	// FixedPackets is the number of unique packet vectors in the
	// fixed-size fingerprint F′ (0 means the paper's 12). Exposed for the
	// F′-length ablation.
	FixedPackets int
	// Seed drives reference sampling during discrimination and negative
	// sampling during training.
	Seed int64
}

// Default returns the paper's configuration: 10·n negative sampling,
// 5 discrimination references, majority-vote acceptance.
func Default() Config {
	return Config{
		Forest:             ml.ForestConfig{Trees: ml.DefaultTrees},
		NegativeRatio:      10,
		DiscriminationRefs: 5,
		AcceptThreshold:    0.5,
	}
}

// withDefaults fills zero fields with the paper's values.
func (c Config) withDefaults() Config {
	if c.NegativeRatio == 0 {
		c.NegativeRatio = 10
	}
	if c.DiscriminationRefs == 0 {
		c.DiscriminationRefs = 5
	}
	if c.AcceptThreshold == 0 {
		c.AcceptThreshold = 0.5
	}
	if c.FixedPackets == 0 {
		c.FixedPackets = fingerprint.FixedPackets
	}
	if c.Forest.Trees == 0 {
		c.Forest.Trees = ml.DefaultTrees
	}
	return c
}

// Stage identifies which pipeline stage produced an identification.
type Stage int

// Identification stages.
const (
	// StageNone: no classifier accepted the fingerprint (unknown type).
	StageNone Stage = iota
	// StageClassification: exactly one classifier accepted.
	StageClassification
	// StageDiscrimination: several accepted; edit distance decided.
	StageDiscrimination
)

// String returns the stage name.
func (s Stage) String() string {
	switch s {
	case StageClassification:
		return "classification"
	case StageDiscrimination:
		return "discrimination"
	default:
		return "none"
	}
}

// Result is the outcome of identifying one fingerprint.
type Result struct {
	// Known reports whether any classifier accepted the fingerprint.
	Known bool
	// Type is the identified device-type; empty when !Known.
	Type string
	// Accepted lists every device-type whose classifier accepted the
	// fingerprint, in enrolment order.
	Accepted []string
	// Scores holds the per-type dissimilarity scores s_i of the
	// discrimination stage (sum of normalized edit distances to the
	// reference fingerprints, each in [0, DiscriminationRefs]). Nil when
	// discrimination did not run.
	Scores map[string]float64
	// Stage records which stage decided the result.
	Stage Stage
}

// typeModel is one enrolled device-type: its classifier and stored
// training fingerprints (which double as the negative pool for other
// types and the reference pool for discrimination). syms[i] is
// prints[i] interned in the bank's alphabet, the form stage two scores.
type typeModel struct {
	name   string
	forest *ml.Forest
	prints []*fingerprint.Fingerprint
	syms   [][]int32
	fixed  [][]float64
}

// alphabet interns packet feature vectors to dense symbols 0, 1, 2, …
// so stage two compares small integers rather than 92-byte vectors. A
// bank's alphabet covers every reference print it holds, tombstones
// included. It grows under the write lock, and symbols whose prints
// the bank dropped (a replaced tombstone, a rolled-back enrolment) stay
// until the alphabet is rebuilt: by Restore, and by an enrolment that
// finds it twice its size at the last rebuild, so it never exceeds
// twice the symbols the held prints use.
type alphabet map[features.Vector]int32

// internAll sets the symbols of every live and tombstoned type in a
// fresh alphabet, which it returns.
func internAll(types []*typeModel, retired map[string]*typeModel) alphabet {
	a := make(alphabet)
	for _, tm := range types {
		tm.syms = a.intern(tm.prints)
	}
	for _, tm := range retired {
		tm.syms = a.intern(tm.prints)
	}
	return a
}

// intern returns the symbol sequences of prints, adding unseen vectors.
func (a alphabet) intern(prints []*fingerprint.Fingerprint) [][]int32 {
	out := make([][]int32, len(prints))
	for i, p := range prints {
		syms := make([]int32, len(p.View()))
		for j, v := range p.View() {
			s, ok := a[v]
			if !ok {
				s = int32(len(a))
				a[v] = s
			}
			syms[j] = s
		}
		out[i] = syms
	}
	return out
}

// lookup appends the symbols of vs to dst; a vector no reference print
// holds gets -1, which matches nothing.
func (a alphabet) lookup(dst []int32, vs []features.Vector) []int32 {
	for _, v := range vs {
		s, ok := a[v]
		if !ok {
			s = -1
		}
		dst = append(dst, s)
	}
	return dst
}

// Bank is a bank of per-type classifiers with an edit-distance
// discriminator. Create with NewBank, extend with Enroll.
//
// A Bank is safe for concurrent use: Identify, IdentifyBatch, Classify,
// Discriminate and the accessors take a read lock and may run in
// parallel with each other; Enroll takes the write lock and may race
// freely with them (identifications observe the bank either before or
// after the enrolment, never mid-way). Discrimination reference
// sampling is derived deterministically from the bank seed and the
// fingerprint being identified, so results do not depend on the order
// or interleaving of identification calls.
type Bank struct {
	cfg Config

	// rw guards types, index, retired and symbols: held shared by the
	// identification paths, exclusively by Enroll and Remove.
	rw    sync.RWMutex
	types []*typeModel
	index map[string]*typeModel
	// symbols is the alphabet every reference print is interned in;
	// symbolsAt is its size when last rebuilt.
	symbols   alphabet
	symbolsAt int
	// fused is the QuickScorer index every stage-one path classifies
	// through: all enrolled forests in enrolment order (see
	// ml.ForestSet). Enroll merges the new forest in, Remove drops one,
	// and Train and Restore build it in one pass. Guarded by rw
	// alongside types.
	fused *ml.ForestSet
	// minVotes[f] is the smallest vote count at which forest f's vote
	// fraction clears AcceptThreshold — precomputed per forest (tree
	// counts may differ) so the fused integer votes matrix resolves to
	// accepts bit-identically to the oracle's float comparison.
	minVotes []int32
	// retired holds tombstones of removed types: the classifier is
	// dropped (the type no longer accepts fingerprints and leaves the
	// negative pool) but the reference prints stay, so an in-flight
	// discrimination that accepted the type just before its removal
	// still scores it identically. Re-enrolling the name replaces the
	// tombstone.
	retired map[string]*typeModel

	// version counts successful enrolments. Verdict caches key their
	// entries by it so enrolling a new type invalidates every verdict
	// computed against the smaller bank.
	version atomic.Uint64

	// enrolls counts classifier trainings (guarded by rw alongside
	// types). Each training derives its negative-sampling and forest
	// seeds from (cfg.Seed, enrolls), so the training stream is a pure
	// function of the enrolment ordinal rather than a shared consumed
	// RNG — which is what lets Snapshot/Restore transfer a bank whose
	// future enrolments stay bit-identical to the incumbent's.
	enrolls uint64

	// classifyNanos/classifyFPs meter the fused stage-one pass (total
	// wall nanoseconds and fingerprints classified) for the serving
	// experiments' ns/fingerprint metric.
	classifyNanos atomic.Uint64
	classifyFPs   atomic.Uint64
}

// identScratch is per-goroutine scratch reused across an identification
// call (and, in IdentifyBatch, across all fingerprints a worker
// handles): the probe's symbols and compiled pattern, the reference
// draw's source and permutation.
type identScratch struct {
	probe []int32
	pat   editdist.Pattern
	src   refSource
	perm  []int
}

// NewBank creates an empty classifier bank.
func NewBank(cfg Config) *Bank {
	cfg = cfg.withDefaults()
	return &Bank{
		cfg:     cfg,
		index:   make(map[string]*typeModel),
		symbols: make(alphabet),
		retired: make(map[string]*typeModel),
		fused:   ml.NewForestSet(cfg.Forest.Flat),
	}
}

// Train builds a bank and enrolls every type in the training set in one
// batch: every classifier's negative pool spans all the other types, as
// in the paper's cross-validation protocol (§VI-B). Types are enrolled in
// sorted-name order so training is deterministic regardless of map
// iteration.
func Train(cfg Config, trainingSet map[string][]*fingerprint.Fingerprint) (*Bank, error) {
	names := make([]string, 0, len(trainingSet))
	for name := range trainingSet {
		names = append(names, name)
	}
	sort.Strings(names)
	return TrainOrdered(cfg, names, trainingSet)
}

// TrainOrdered is Train with the enrolment order given explicitly:
// types enroll in the order of names (each of which must key
// trainingSet). Callers that replay a recorded enrolment history — the
// control plane minting a replacement shard member — pass their cached
// order instead of paying a re-sort per replay.
func TrainOrdered(cfg Config, names []string, trainingSet map[string][]*fingerprint.Fingerprint) (*Bank, error) {
	b := NewBank(cfg)
	for _, name := range names {
		prints, ok := trainingSet[name]
		if !ok {
			return nil, fmt.Errorf("core: training order names %q but the training set lacks it", name)
		}
		if err := b.addType(name, prints); err != nil {
			return nil, err
		}
	}
	for _, tm := range b.types {
		forest, err := b.trainClassifier(tm)
		if err != nil {
			return nil, fmt.Errorf("core: training classifier for %q: %w", tm.name, err)
		}
		tm.forest = forest
	}
	var err error
	if b.fused, b.minVotes, err = b.buildFused(b.types); err != nil {
		return nil, err
	}
	b.version.Add(uint64(len(b.types)))
	return b, nil
}

// Types returns the enrolled device-type names in enrolment order.
func (b *Bank) Types() []string {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return b.typesLocked()
}

func (b *Bank) typesLocked() []string {
	out := make([]string, len(b.types))
	for i, tm := range b.types {
		out[i] = tm.name
	}
	return out
}

// Len returns the number of enrolled device-types.
func (b *Bank) Len() int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return len(b.types)
}

// Enroll trains a classifier for a new device-type from its training
// fingerprints and adds it to the bank. Existing classifiers are not
// modified or retrained — the scalability property of §IV-B1. The
// fingerprints are retained as discrimination references and as negative
// samples for later enrolments; earlier classifiers simply never saw the
// new type as negatives, exactly as in the paper's incremental setting.
func (b *Bank) Enroll(name string, prints []*fingerprint.Fingerprint) error {
	b.rw.Lock()
	defer b.rw.Unlock()
	if err := b.addType(name, prints); err != nil {
		return err
	}
	tm := b.types[len(b.types)-1]
	forest, err := b.trainClassifier(tm)
	if err == nil {
		// The index grows incrementally: the new forest's entries merge
		// into it in one linear pass, never re-laying-out the enrolled
		// forests.
		err = b.appendFusedLocked(forest)
	}
	if err != nil {
		// Roll back the registration (and the consumed training ordinal)
		// so the bank stays consistent.
		b.types = b.types[:len(b.types)-1]
		delete(b.index, name)
		b.enrolls--
		return fmt.Errorf("core: training classifier for %q: %w", name, err)
	}
	tm.forest = forest
	b.version.Add(1)
	return nil
}

// Remove retires an enrolled device-type: its classifier is dropped —
// the type stops accepting fingerprints, leaves Types() and leaves the
// negative pool of later enrolments — and the version bumps so verdict
// caches invalidate every entry that depended on this shard. The
// reference prints are retained as a tombstone: a discrimination racing
// the removal (it accepted the type against the pre-removal bank)
// still scores the candidate identically instead of silently skipping
// it — the drain-source step of a live migration depends on exactly
// that window being seamless. Re-enrolling the name replaces the
// tombstone; removing it again is an error.
func (b *Bank) Remove(name string) error {
	b.rw.Lock()
	defer b.rw.Unlock()
	tm, ok := b.index[name]
	if !ok {
		return fmt.Errorf("core: device-type %q not enrolled", name)
	}
	i := slices.Index(b.types, tm)
	b.types = slices.Delete(b.types, i, i+1)
	delete(b.index, name)
	// Drop the classifier and the fixed-size matrix; keep the prints for
	// drain-window discrimination.
	tm.forest = nil
	tm.fixed = nil
	b.retired[name] = tm
	// Forest i leaves the index in one pass; the survivors keep their
	// order. (Rebuilding the survivors with buildFused would sort every
	// entry again, several times the cost.)
	b.fused.Remove(i)
	b.minVotes = slices.Delete(b.minVotes, i, i+1)
	b.version.Add(1)
	return nil
}

// Version returns the bank's enrolment version: it starts at the number
// of types Train enrolled and increments on every successful Enroll.
// A verdict computed at version v is stale once Version() > v — repeat
// fingerprints that were unknown (or discriminated among fewer
// candidates) may identify differently against the grown bank — so
// caches must tag entries with the version they were computed at.
func (b *Bank) Version() uint64 {
	return b.version.Load()
}

// Versions returns the per-shard version vector. A plain Bank is the
// degenerate single-shard bank, so the vector has one element —
// Version() itself. Verdict caches that understand shard-scoped
// invalidation (the IoT Security Service's) work off this vector; with
// one shard it reduces exactly to the global-version semantics.
func (b *Bank) Versions() []uint64 {
	return b.AppendVersions(nil)
}

// AppendVersions appends the version vector to dst and returns the
// extended slice, so a caller that snapshots per batch can reuse one
// buffer.
func (b *Bank) AppendVersions(dst []uint64) []uint64 {
	return append(dst, b.version.Load())
}

// ShardOf reports which shard owns an enrolled device-type. A plain
// Bank is one shard, so every enrolled type lives in shard 0; the
// second result is false for unknown types.
func (b *Bank) ShardOf(name string) (int, bool) {
	b.rw.RLock()
	defer b.rw.RUnlock()
	_, ok := b.index[name]
	return 0, ok
}

// addType registers a device-type's fingerprints without training its
// classifier.
func (b *Bank) addType(name string, prints []*fingerprint.Fingerprint) error {
	if len(prints) == 0 {
		return fmt.Errorf("core: enrolling %q with no fingerprints", name)
	}
	if _, dup := b.index[name]; dup {
		return fmt.Errorf("core: device-type %q already enrolled", name)
	}
	// A re-enrolment replaces any tombstone left by Remove.
	delete(b.retired, name)
	tm := &typeModel{
		name:   name,
		prints: append([]*fingerprint.Fingerprint(nil), prints...),
		syms:   b.symbols.intern(prints),
		fixed:  make([][]float64, len(prints)),
	}
	for i, f := range prints {
		tm.fixed[i] = f.FixedN(b.cfg.FixedPackets)
	}
	b.types = append(b.types, tm)
	b.index[name] = tm
	if len(b.symbols) > 2*b.symbolsAt {
		b.symbols = internAll(b.types, b.retired)
		b.symbolsAt = len(b.symbols)
	}
	return nil
}

// trainClassifier trains the binary forest for tm: all of tm's
// fingerprints as the positive class against NegativeRatio·n fingerprints
// sampled from the other registered types. A bank holding a single type
// has no negative pool; its classifier then accepts everything, which
// matches the degenerate single-type setting.
func (b *Bank) trainClassifier(tm *typeModel) (*ml.Forest, error) {
	var pool [][]float64
	for _, other := range b.types {
		if other == tm {
			continue
		}
		pool = append(pool, other.fixed...)
	}

	n := len(tm.fixed)
	wantNeg := b.cfg.NegativeRatio * n
	if wantNeg > len(pool) {
		wantNeg = len(pool)
	}

	x := make([][]float64, 0, n+wantNeg)
	y := make([]int, 0, n+wantNeg)
	for _, fx := range tm.fixed {
		x = append(x, fx)
		y = append(y, 1)
	}
	// The training randomness is derived from the enrolment ordinal, not
	// drawn from a shared stream: enrolment N of a bank trains the same
	// classifier whether the bank got there by batch training, by
	// incremental enrolment, by history replay or by snapshot restore.
	rng := rand.New(rand.NewSource(deriveSeed(b.cfg.Seed, b.enrolls)))
	b.enrolls++
	negIdx := ml.SampleWithoutReplacement(len(pool), wantNeg, rng)
	seed := rng.Int63()
	for _, i := range negIdx {
		x = append(x, pool[i])
		y = append(y, 0)
	}

	ds, err := ml.NewDataset(x, y)
	if err != nil {
		return nil, err
	}
	cfg := b.cfg.Forest
	cfg.Seed = seed
	return ml.NewForest(ds, cfg)
}

// deriveSeed mixes the bank seed with a training ordinal (splitmix64
// finalizer) into the seed of one classifier training's generator.
func deriveSeed(seed int64, ordinal uint64) int64 {
	z := uint64(seed) ^ (0x9e3779b97f4a7c15 * (ordinal + 1))
	z ^= z >> 30
	z *= 0xbf58476d1ce4b9b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Classify runs stage one only: it returns the names of every device-type
// whose classifier accepts the fixed-size fingerprint, in enrolment
// order. The pass runs through the fused multi-forest index and is
// bit-identical to ClassifyOracle, the per-forest reference.
func (b *Bank) Classify(fixed []float64) []string {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return b.classifyLocked(fixed)
}

// classifyLocked classifies one fixed-size fingerprint through the
// fused index on a pooled one-row sample matrix. Callers hold the read
// lock.
func (b *Bank) classifyLocked(fixed []float64) []string {
	scr := classifyScratchPool.Get().(*classifyScratch)
	scr.m.Reset(1, len(fixed))
	scr.m.SetRow(0, fixed)
	accepted := b.classifyMatrixLocked(&scr.m, scr, 0)
	classifyScratchPool.Put(scr)
	return accepted[0]
}

// ClassifyOracle is the per-forest reference implementation of
// Classify: every enrolled forest predicts on its own, exactly the
// pre-fusion stage one. It is kept as the bit-equality oracle the fused
// engine is asserted against (in tests, in the service experiment, and
// as the benchmark baseline) — not as a serving path.
func (b *Bank) ClassifyOracle(fixed []float64) []string {
	b.rw.RLock()
	defer b.rw.RUnlock()
	var accepted []string
	for _, tm := range b.types {
		if tm.forest.PredictProb(fixed) >= b.cfg.AcceptThreshold {
			accepted = append(accepted, tm.name)
		}
	}
	return accepted
}

// minVotesFor returns the smallest integer vote count whose fraction of
// trees clears the accept threshold — the fused engine's integer form
// of the oracle's `votes/trees >= threshold` float comparison. The
// fraction is monotone in the vote count, so `votes >= minVotesFor(..)`
// is exactly equivalent; a threshold no fraction reaches yields
// trees+1, which never accepts.
func minVotesFor(trees int, threshold float64) int32 {
	for v := 0; v <= trees; v++ {
		if float64(v)/float64(trees) >= threshold {
			return int32(v)
		}
	}
	return int32(trees + 1)
}

// appendFusedLocked fuses one newly trained forest into the serving
// index and records its accept threshold in vote counts. Callers hold
// the write lock (or own the bank exclusively, as Train does).
func (b *Bank) appendFusedLocked(forest *ml.Forest) error {
	if err := b.fused.Append(forest); err != nil {
		return err
	}
	b.minVotes = append(b.minVotes, minVotesFor(forest.Trees(), b.cfg.AcceptThreshold))
	return nil
}

// buildFused builds the serving index and accept thresholds of types'
// forests in one pass, touching no bank state: Train installs them, and
// Restore builds them off-lock before its swap.
func (b *Bank) buildFused(types []*typeModel) (*ml.ForestSet, []int32, error) {
	forests := make([]*ml.Forest, len(types))
	minVotes := make([]int32, len(types))
	for i, tm := range types {
		forests[i] = tm.forest
		minVotes[i] = minVotesFor(tm.forest.Trees(), b.cfg.AcceptThreshold)
	}
	fused := ml.NewForestSet(b.cfg.Forest.Flat)
	if err := fused.Build(forests); err != nil {
		return nil, nil, err
	}
	return fused, minVotes, nil
}

// ClassifyStats reports the fused stage-one counters: how many
// fingerprints the bank classified and the total wall nanoseconds the
// fused passes took. The serving experiments surface the quotient as
// classify-stage ns/fingerprint.
type ClassifyStats struct {
	Fingerprints uint64 `json:"fingerprints"`
	Nanos        uint64 `json:"nanos"`
}

// ClassifyStats returns the bank's fused classify counters.
func (b *Bank) ClassifyStats() ClassifyStats {
	return ClassifyStats{
		Fingerprints: b.classifyFPs.Load(),
		Nanos:        b.classifyNanos.Load(),
	}
}

// Identify runs the full two-stage pipeline on a fingerprint.
func (b *Bank) Identify(f *fingerprint.Fingerprint) Result {
	b.rw.RLock()
	defer b.rw.RUnlock()
	var scratch identScratch
	return b.identifyLocked(f, &scratch)
}

func (b *Bank) identifyLocked(f *fingerprint.Fingerprint, scratch *identScratch) Result {
	// The fixed-size form fills a pooled one-row matrix in place instead
	// of allocating a FixedN vector per identification.
	scr := classifyScratchPool.Get().(*classifyScratch)
	scr.m.Reset(1, b.cfg.FixedPackets*features.NumFeatures)
	f.FixedNInto(scr.m.Row(0), b.cfg.FixedPackets)
	accepted := b.classifyMatrixLocked(&scr.m, scr, 0)[0]
	classifyScratchPool.Put(scr)
	return b.resolveLocked(f, accepted, scratch)
}

// resolveLocked turns a stage-one accept set into a Result, running
// discrimination when needed.
func (b *Bank) resolveLocked(f *fingerprint.Fingerprint, accepted []string, scratch *identScratch) Result {
	switch len(accepted) {
	case 0:
		return Result{Stage: StageNone}
	case 1:
		return Result{Known: true, Type: accepted[0], Accepted: accepted, Stage: StageClassification}
	default:
		typ, scores := b.discriminateLocked(f, accepted, scratch)
		return Result{
			Known:    true,
			Type:     typ,
			Accepted: accepted,
			Scores:   scores,
			Stage:    StageDiscrimination,
		}
	}
}

// Discriminate runs stage two: it compares F against DiscriminationRefs
// reference fingerprints of each candidate type sampled deterministically
// for this fingerprint, and returns the type with the lowest
// dissimilarity score, along with all scores. Ties break toward the
// earlier-enrolled type.
func (b *Bank) Discriminate(f *fingerprint.Fingerprint, candidates []string) (string, map[string]float64) {
	b.rw.RLock()
	defer b.rw.RUnlock()
	var scratch identScratch
	return b.discriminateLocked(f, candidates, &scratch)
}

func (b *Bank) discriminateLocked(f *fingerprint.Fingerprint, candidates []string, scratch *identScratch) (string, map[string]float64) {
	// The probe compiles once per verdict; its references are interned
	// already. Reference draws come from a source seeded by the bank
	// seed and the canonical fingerprint hash, so they are a pure
	// function of (bank, fingerprint): identifying the same fingerprint
	// always compares the same references, whether sequentially, in a
	// batch, or concurrently from many goroutines — the property the
	// batch/sequential equivalence guarantee rests on.
	scratch.probe = b.symbols.lookup(scratch.probe[:0], f.View())
	scratch.pat.Compile(scratch.probe, len(b.symbols))
	scratch.src.reset(b.cfg.Seed ^ int64(f.Hash()))
	scores := make(map[string]float64, len(candidates))
	best := ""
	bestScore := 0.0

	for _, name := range candidates {
		tm := b.index[name]
		if tm == nil {
			// A candidate retired mid-identification scores from its
			// tombstone prints, exactly as before the removal.
			tm = b.retired[name]
		}
		if tm == nil {
			continue
		}
		var s float64
		for _, j := range b.sampleRefs(tm, scratch) {
			s += scratch.pat.Normalized(tm.syms[j])
		}
		scores[name] = s
		if best == "" || s < bestScore {
			best = name
			bestScore = s
		}
	}
	return best, scores
}

// sampleRefs returns the indices of the reference prints of tm this
// discrimination compares, in scratch.perm: every print when tm has at
// most DiscriminationRefs of them, else the first DiscriminationRefs of
// a permutation drawn from scratch.src — the draw
// ml.SampleWithoutReplacement makes through rand.Rand.Perm.
func (b *Bank) sampleRefs(tm *typeModel, scratch *identScratch) []int {
	n, k := len(tm.prints), b.cfg.DiscriminationRefs
	scratch.perm = slices.Grow(scratch.perm[:0], n)[:n]
	if k >= n {
		for i := range scratch.perm {
			scratch.perm[i] = i
		}
		return scratch.perm
	}
	scratch.src.perm(scratch.perm)
	return scratch.perm[:k]
}

// DistanceComputations returns how many edit-distance computations a
// discrimination among the given candidates performs (used by the timing
// experiments of Table IV).
func (b *Bank) DistanceComputations(candidates []string) int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	total := 0
	for _, name := range candidates {
		tm := b.index[name]
		if tm == nil {
			tm = b.retired[name]
		}
		if tm != nil {
			k := b.cfg.DiscriminationRefs
			if k > len(tm.prints) {
				k = len(tm.prints)
			}
			total += k
		}
	}
	return total
}

// IdentifyVectors is a convenience wrapper identifying a raw feature
// vector sequence (it builds the fingerprint first).
func (b *Bank) IdentifyVectors(vs []features.Vector) Result {
	return b.Identify(fingerprint.FromVectors(vs))
}

// IdentifyEditOnly identifies a fingerprint by edit distance alone,
// skipping the classifier stage and scoring F against references of
// every enrolled type. The paper notes this works but is "far more time
// consuming than classification" (§IV-B); the ablation benchmarks
// quantify that trade-off.
func (b *Bank) IdentifyEditOnly(f *fingerprint.Fingerprint) Result {
	b.rw.RLock()
	defer b.rw.RUnlock()
	var scratch identScratch
	types := b.typesLocked()
	typ, scores := b.discriminateLocked(f, types, &scratch)
	return Result{
		Known:    typ != "",
		Type:     typ,
		Accepted: types,
		Scores:   scores,
		Stage:    StageDiscrimination,
	}
}
