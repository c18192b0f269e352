// Package runpool executes keyed jobs on a bounded worker pool with
// singleflight-style deduplication: submitting a key that is already
// in flight (or already finished) joins the existing execution instead
// of racing or recomputing it. The experiment sweeps use it to fan
// (config, benchmark) pairs across cores — figures that share runs
// (Fig 6/7/8 all need the RL results) pay for each run exactly once,
// at any worker count, with results collected in whatever order the
// caller chooses.
package runpool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Task is the future for one keyed job. A Task is created by the first
// Submit of its key; later Submits of the same key return the same Task.
type Task[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Wait blocks until the job has run and returns its result. Wait may be
// called any number of times from any goroutine.
func (t *Task[V]) Wait() (V, error) {
	<-t.done
	return t.val, t.err
}

// Stats counts pool activity.
type Stats struct {
	// Submitted is the number of distinct jobs accepted (unique keys).
	Submitted int
	// Deduped is the number of Submit calls that joined an existing job.
	Deduped int
	// Executed is the number of jobs whose function has finished, a
	// panicking one included.
	Executed int
}

// Pool runs keyed jobs on at most Workers goroutines, starting them in
// the order they were submitted.
type Pool[K comparable, V any] struct {
	workers int

	mu      sync.Mutex
	tasks   map[K]*Task[V]
	queue   []func() // submitted jobs not yet started, oldest first
	running int      // worker goroutines alive
	stats   Stats
}

// New builds a pool. workers <= 0 selects runtime.GOMAXPROCS(0).
func New[K comparable, V any](workers int) *Pool[K, V] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool[K, V]{
		workers: workers,
		tasks:   make(map[K]*Task[V]),
	}
}

// Workers reports the pool's concurrency bound.
func (p *Pool[K, V]) Workers() int { return p.workers }

// Submit schedules fn under key and returns its Task without waiting;
// created reports that this call made the Task. If a job with the same
// key was already submitted, fn is dropped and the existing Task is
// returned — completed results are memoized for the life of the pool.
func (p *Pool[K, V]) Submit(key K, fn func() (V, error)) (t *Task[V], created bool) {
	p.mu.Lock()
	if t, ok := p.tasks[key]; ok {
		p.stats.Deduped++
		p.mu.Unlock()
		return t, false
	}
	t = &Task[V]{done: make(chan struct{})}
	p.tasks[key] = t
	p.stats.Submitted++
	p.queue = append(p.queue, func() {
		t.val, t.err = p.run(fn)
		p.mu.Lock()
		p.stats.Executed++
		p.mu.Unlock()
		close(t.done)
	})
	if p.running < p.workers {
		p.running++
		go p.work()
	}
	p.mu.Unlock()
	return t, true
}

// work runs queued jobs, oldest first, until the queue is empty.
func (p *Pool[K, V]) work() {
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.running--
			p.mu.Unlock()
			return
		}
		job := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.mu.Unlock()
		job()
	}
}

// run executes fn, recovering a panic into the task's error. One
// crashing (config, benchmark) pair must fail its own sweep entry, not
// take down the process and every sibling run with it; the stack text
// is preserved so the crash stays diagnosable.
func (p *Pool[K, V]) run(fn func() (V, error)) (val V, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runpool: task panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return fn()
}

// Stats returns a snapshot of the pool counters.
func (p *Pool[K, V]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
