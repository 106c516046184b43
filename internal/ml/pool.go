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
// jobs; a job is a reused struct whose run method pulls work units off
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
// It owns the pass's keyed samples (one buffer per layout precision)
// and one leaf-word buffer per worker, all reused across passes. The
// row tiles are handed out by cursor and each worker claims its own
// leaf words by slot; no two workers ever write the same votes cell, so
// the matrix needs no atomics.
type voteJob struct {
	fs        *ForestSet
	votes     []int32
	keys64    []uint64
	keys32    []uint32
	leafWords [][]uint64
	dim       int // keyed row stride
	rows      int
	tiles     int
	cursor    atomic.Int64
	slot      atomic.Int64
	wg        sync.WaitGroup
}

// voteJobs is the free list of vote jobs. A job carries buffers sized
// to the index (leaf words for every worker), so it is kept rather than
// left to a sync.Pool, which may drop it at any collection and then
// rebuild every buffer on the next pass.
var voteJobs struct {
	sync.Mutex
	free []*voteJob
}

// getVoteJob takes a job off the free list, or makes one.
func getVoteJob() *voteJob {
	voteJobs.Lock()
	defer voteJobs.Unlock()
	if n := len(voteJobs.free); n > 0 {
		j := voteJobs.free[n-1]
		voteJobs.free = voteJobs.free[:n-1]
		return j
	}
	return new(voteJob)
}

// putVoteJob returns a finished job to the free list.
func putVoteJob(j *voteJob) {
	voteJobs.Lock()
	voteJobs.free = append(voteJobs.free, j)
	voteJobs.Unlock()
}

func (j *voteJob) run() {
	v := j.leafWords[j.slot.Add(1)-1]
	for {
		t := int(j.cursor.Add(1)) - 1
		if t >= j.tiles {
			return
		}
		s0 := t * tileRows
		s1 := min(s0+tileRows, j.rows)
		if j.fs.quantize {
			scoreRows(j.fs, &j.fs.ix32, j.keys32, j.dim, j.votes, v, s0, s1)
		} else {
			scoreRows(j.fs, &j.fs.ix64, j.keys64, j.dim, j.votes, v, s0, s1)
		}
	}
}
