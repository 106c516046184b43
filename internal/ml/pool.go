package ml

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package's classification paths share one persistent worker pool
// instead of spawning goroutines per call: a single-fingerprint
// Identify used to pay a spawn + join barrier per forest, and a batch
// paid one per forest per flush. Pool workers block on a channel of
// jobs; a job is a pooled struct whose run method pulls work units off
// an internal atomic cursor until none remain, so any number of workers
// (including zero — see fanOut) can cooperate on one job without
// partitioning it up front.
//
// The submitting goroutine always runs the job body itself after
// enqueueing helpers, so progress never depends on pool capacity and a
// saturated pool degrades to inline execution rather than deadlock.

// runnable is one unit of cooperative work: run returns when the job's
// internal cursor is exhausted.
type runnable interface{ run() }

// poolTask pairs a job with the WaitGroup its helpers report to.
type poolTask struct {
	j  runnable
	wg *sync.WaitGroup
}

type workPool struct {
	once  sync.Once
	tasks chan poolTask
}

// classifyPool is the package-wide pool. Lazily started: GOMAXPROCS
// workers at first use, living for the process lifetime.
var classifyPool workPool

func (p *workPool) start() {
	n := runtime.GOMAXPROCS(0)
	p.tasks = make(chan poolTask, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range p.tasks {
				t.j.run()
				t.wg.Done()
			}
		}()
	}
}

// fanOut enqueues up to extra helper executions of j. The send is
// non-blocking: when the queue is full the remaining helpers are simply
// not enqueued — the caller's own run loop absorbs their share through
// the job's cursor. Callers run j themselves after fanOut and then wait
// on wg, so the job completes regardless of how many helpers actually
// started.
func (p *workPool) fanOut(j runnable, wg *sync.WaitGroup, extra int) {
	p.once.Do(p.start)
	for i := 0; i < extra; i++ {
		wg.Add(1)
		select {
		case p.tasks <- poolTask{j: j, wg: wg}:
		default:
			wg.Done()
			return
		}
	}
}

// voteJob fills a votes matrix for one ForestSet × SampleMatrix pass.
// It owns the pass's keyed samples (one buffer per layout precision,
// reused across passes). The tile index space (forest blocks × sample
// blocks) is handed out by cursor; tiles touching the same sample are
// confined to one forest block, so no two workers ever write the same
// votes cell and the matrix needs no atomics.
type voteJob struct {
	fs     *ForestSet
	votes  []int32
	keys64 []uint64
	keys32 []uint32
	stride int // keyed row stride
	rows   int
	nSB    int // sample blocks per forest block
	tiles  int
	cursor atomic.Int64
	wg     sync.WaitGroup
}

var voteJobPool = sync.Pool{New: func() any { return new(voteJob) }}

func (j *voteJob) run() {
	for {
		t := int(j.cursor.Add(1)) - 1
		if t >= j.tiles {
			return
		}
		fb := j.fs.blocks[t/j.nSB]
		s0 := (t % j.nSB) * sampleBlock
		s1 := min(s0+sampleBlock, j.rows)
		if j.fs.quantize {
			tileVotes(j.fs, j.fs.nodes32, j.keys32, j.stride, j.votes, fb, s0, s1)
		} else {
			tileVotes(j.fs, j.fs.nodes64, j.keys64, j.stride, j.votes, fb, s0, s1)
		}
	}
}
