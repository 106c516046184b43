package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/gateway"
	"repro/internal/iotssp"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req, the request's fingerprint hash (unique per request on the
// miss workloads; on the warm workloads concurrent requests for the
// same fingerprint share it, and a child may attach to either).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

const maxSpans = 1 << 20

// recorder keeps spans in memory until the run ends. The parent of a
// new span is the innermost span still open for the same request: the
// boundaries sit in one process, so causality can be read off a map
// instead of being carried over the wire.
type recorder struct {
	on      atomic.Bool // spans are recorded only while set
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	open    map[uint64]int32
	dropped int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: make(map[uint64]int32)}
}

func (r *recorder) begin(name string, req uint64) int32 {
	if !r.on.Load() {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: r.open[req], Name: name, Req: req, Start: now})
	r.open[req] = id
	return id
}

func (r *recorder) end(id int32) {
	if id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	if r.open[s.Req] == id {
		if s.Parent == 0 {
			delete(r.open, s.Req)
		} else {
			r.open[s.Req] = s.Parent
		}
	}
}

// beginAll opens one span per fingerprint of a batched call; endAll
// closes them.
func (r *recorder) beginAll(name string, fps []*fingerprint.Fingerprint) []int32 {
	if !r.on.Load() {
		return nil
	}
	ids := make([]int32, len(fps))
	for i, fp := range fps {
		ids[i] = r.begin(name, fp.Hash())
	}
	return ids
}

func (r *recorder) endAll(ids []int32) {
	for _, id := range ids {
		r.end(id)
	}
}

// layerTime is one span name's totals: self time is a span's duration
// minus the part of it its children cover.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

func (r *recorder) selfTimes() []layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int32][]int32)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range r.spans {
		if s.End == 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return r.spans[kids[i]-1].Start < r.spans[kids[j]-1].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			c := r.spans[k-1]
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
		}
		lt.count++
		lt.total += time.Duration(s.End - s.Start)
		lt.self += time.Duration(s.End - s.Start - covered)
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// write stores the spans as one JSON array.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// tracedIdentifier wraps a gateway client at the Identifier boundary.
// Besides spans it remembers when the first call since reset began and
// the last one ended, which splits a device's onboarding into feed,
// identify and apply.
type tracedIdentifier struct {
	inner interface {
		gateway.Identifier
		gateway.BatchIdentifier
	}
	rec *recorder

	mu          sync.Mutex
	first, last time.Time
}

func (t *tracedIdentifier) window() (first, last time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	first, last = t.first, t.last
	t.first, t.last = time.Time{}, time.Time{}
	return first, last
}

func (t *tracedIdentifier) note(start, end time.Time) {
	t.mu.Lock()
	if t.first.IsZero() {
		t.first = start
	}
	t.last = end
	t.mu.Unlock()
}

func (t *tracedIdentifier) Identify(ctx context.Context, mac string, fp *fingerprint.Fingerprint) (iotssp.Response, error) {
	start := time.Now()
	id := t.rec.begin("gateway.identify", fp.Hash())
	resp, err := t.inner.Identify(ctx, mac, fp)
	t.rec.end(id)
	t.note(start, time.Now())
	return resp, err
}

func (t *tracedIdentifier) IdentifyBatch(ctx context.Context, macs []string, fps []*fingerprint.Fingerprint) ([]iotssp.Response, []error) {
	start := time.Now()
	ids := t.rec.beginAll("gateway.identify", fps)
	resps, errs := t.inner.IdentifyBatch(ctx, macs, fps)
	t.rec.endAll(ids)
	t.note(start, time.Now())
	return resps, errs
}

// tracedBank wraps the identification backend handed to NewService.
type tracedBank struct {
	iotssp.Bank
	rec    *recorder
	busyNs atomic.Int64
}

func (t *tracedBank) Identify(fp *fingerprint.Fingerprint) core.Result {
	start := time.Now()
	id := t.rec.begin("iotssp.bank", fp.Hash())
	res := t.Bank.Identify(fp)
	t.rec.end(id)
	t.busyNs.Add(int64(time.Since(start)))
	return res
}

func (t *tracedBank) IdentifyBatch(fps []*fingerprint.Fingerprint, workers int) []core.Result {
	start := time.Now()
	ids := t.rec.beginAll("iotssp.bank", fps)
	res := t.Bank.IdentifyBatch(fps, workers)
	t.rec.endAll(ids)
	t.busyNs.Add(int64(time.Since(start)))
	return res
}

// tracedShard wraps a remote shard inside NewShardedBankFrom.
type tracedShard struct {
	core.Shard
	rec *recorder

	classifyNs, classifyCalls         atomic.Int64
	discriminateNs, discriminateCalls atomic.Int64
}

func (t *tracedShard) ClassifyBatch(fps []*fingerprint.Fingerprint, workers int) [][]string {
	start := time.Now()
	ids := t.rec.beginAll("core.shard.classify", fps)
	out := t.Shard.ClassifyBatch(fps, workers)
	t.rec.endAll(ids)
	t.classifyNs.Add(int64(time.Since(start)))
	t.classifyCalls.Add(1)
	return out
}

func (t *tracedShard) Discriminate(f *fingerprint.Fingerprint, candidates []string) (string, map[string]float64) {
	start := time.Now()
	id := t.rec.begin("core.shard.discriminate", f.Hash())
	best, scores := t.Shard.Discriminate(f, candidates)
	t.rec.end(id)
	t.discriminateNs.Add(int64(time.Since(start)))
	t.discriminateCalls.Add(1)
	return best, scores
}
