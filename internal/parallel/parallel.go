// Package parallel implements LibShalom's parallel runtime (§6): a static
// two-level partition of C into a TM×TN grid of per-thread sub-blocks whose
// boundaries are aligned to the micro-kernel tile — the property that lets
// the partition avoid manufacturing edge cases — and a fork-join worker pool
// that mirrors the paper's use of fork-join OS primitives over the two outer
// GEMM loops (L1 and L3 of Fig 1).
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"libshalom/internal/analytic"
	"libshalom/internal/faults"
	"libshalom/internal/guard"
)

// Block is one thread's sub-block of C.
type Block struct {
	I0, J0 int // top-left corner
	M, N   int // extent
}

// Blocks partitions an m×n C into the grid given by part, aligning interior
// boundaries to multiples of mr (rows) and nr (columns). Work is distributed
// in whole micro-tiles: with U = ⌈m/mr⌉ row-tiles split across TM threads,
// every thread gets ⌊U/TM⌋ or ⌈U/TM⌉ tiles, so at most the final row and
// column of the grid contain partial tiles. Threads left without tiles
// produce no block. The returned blocks exactly tile C (property-tested).
func Blocks(m, n int, part analytic.Partition, mr, nr int) []Block {
	if m <= 0 || n <= 0 {
		return nil
	}
	rows := splitAligned(m, part.TM, mr)
	cols := splitAligned(n, part.TN, nr)
	blocks := make([]Block, 0, len(rows)*len(cols))
	for _, r := range rows {
		for _, c := range cols {
			blocks = append(blocks, Block{I0: r.off, J0: c.off, M: r.len, N: c.len})
		}
	}
	return blocks
}

// BlockCount is len(Blocks(m, n, part, mr, nr)), without the allocation.
func BlockCount(m, n int, part analytic.Partition, mr, nr int) int {
	if m <= 0 || n <= 0 {
		return 0
	}
	return spanCount(m, part.TM, mr) * spanCount(n, part.TN, nr)
}

type span struct{ off, len int }

// spanCount is the number of chunks splitAligned makes: min(parts, tiles),
// at least one, and every chunk holds at least one whole tile.
func spanCount(extent, parts, unit int) int {
	return max(1, min(parts, (extent+max(unit, 1)-1)/max(unit, 1)))
}

// splitAligned divides extent into at most parts chunks, each a multiple of
// unit except possibly the last nonempty chunk.
func splitAligned(extent, parts, unit int) []span {
	unit = max(unit, 1)
	tiles := (extent + unit - 1) / unit
	parts = spanCount(extent, parts, unit)
	base := tiles / parts
	extra := tiles % parts
	spans := make([]span, 0, parts)
	off := 0
	for p := 0; p < parts; p++ {
		t := base
		if p < extra {
			t++
		}
		if t == 0 {
			continue
		}
		l := t * unit
		if off+l > extent {
			l = extent - off
		}
		if l <= 0 {
			continue
		}
		spans = append(spans, span{off: off, len: l})
		off += l
	}
	return spans
}

// Observer receives the pool's scheduling events — the hook the telemetry
// layer plugs into. Implementations must be safe for concurrent use from
// every worker; all methods are called on hot scheduling paths, so they
// should be a handful of atomic operations at most. telemetry.Recorder
// implements Observer.
type Observer interface {
	// TaskQueued reports n tasks submitted to the pool by one run.
	TaskQueued(n int)
	// TaskStart reports a task beginning execution after queueWaitNs in
	// the run queue.
	TaskStart(queueWaitNs int64)
	// TaskDone reports a task finishing after busyNs of execution.
	TaskDone(busyNs int64)
	// FaultInjected reports a fired fault-injection point inside the pool
	// (the SlowWorker chaos point).
	FaultInjected(p faults.Point)
}

// Pool is a fork-join worker pool with persistent goroutines, standing in
// for the fork-join threading primitive the paper's runtime uses. A Pool is
// safe for concurrent runs (each run joins only its own tasks), which
// is how a shared Context serves simultaneous GEMMs.
type Pool struct {
	workers int
	tasks   chan func(worker int)
	obs     Observer // nil: scheduling is not instrumented
	// mu orders Close after the runs still handing out tasks: tasks is
	// closed when the last of them finishes, so no send races the close.
	mu      sync.Mutex
	sending int
	closed  atomic.Bool
}

// NewPool starts a pool with the given number of worker goroutines
// (minimum 1).
func NewPool(workers int) *Pool { return NewPoolObserved(workers, nil) }

// NewPoolObserved starts a pool whose scheduling events feed obs; a nil
// observer leaves the pool exactly as cheap as NewPool's.
func NewPoolObserved(workers int, obs Observer) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, tasks: make(chan func(worker int)), obs: obs}
	for i := 0; i < workers; i++ {
		go func() {
			for f := range p.tasks {
				f(i)
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// ErrClosed is returned by RunWorkerCfg on a pool whose Close has been called.
var ErrClosed = errors.New("parallel: run on closed pool")

// PanicError is returned by RunWorkerCfg when a task panics: the worker
// goroutine recovers (the pool stays usable), tasks of the same call that have
// not started yet are cancelled, and the first panic is reported with the
// goroutine stack captured at the point of recovery.
type PanicError struct {
	Task  int // index into the call's task slice
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", e.Task, e.Value)
}

// RunConfig carries the optional deadline machinery of one RunWorkerCfg call.
type RunConfig struct {
	// Ctx, when non-nil, cancels cooperatively: tasks not yet handed to a
	// worker are skipped once the context is done, started tasks still run
	// to completion (the join is preserved), and the run fails with the
	// context's error. This is how per-call deadlines propagate into the
	// pool without abandoning in-flight writers.
	Ctx context.Context
	// TaskBudget, when positive, arms the stuck-worker watchdog: a task
	// running longer than the budget fails the run with a typed
	// *guard.StuckWorkerError and releases the join immediately — the one
	// case where Run returns before every task has finished, because a
	// stuck goroutine cannot be killed. The caller must then treat the
	// tasks' output as undefined (the straggler may still write).
	TaskBudget time.Duration
}

// RunWorkerCfg executes all tasks on the pool and blocks until every one
// has completed or been cancelled (the join of fork-join), with the
// cooperative cancellation and the stuck-worker watchdog of rc. Each task
// learns the index, 0..Workers()-1, of the worker executing it (the GEMM
// driver uses it for trace-lane attribution). Each call owns its own join
// state, so concurrent calls on one pool are independent.
//
// A panicking task does not kill its worker or the process: the panic is
// recovered, remaining unstarted tasks of this call are skipped, and the
// call returns a *PanicError describing the first panic. A call on a closed
// pool returns ErrClosed.
func (p *Pool) RunWorkerCfg(rc RunConfig, tasks []func(worker int)) error {
	if len(tasks) == 0 {
		return nil
	}
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return ErrClosed
	}
	p.sending++
	p.mu.Unlock()
	if rc.Ctx != nil {
		if err := rc.Ctx.Err(); err != nil {
			p.doneSending()
			return err
		}
	}
	if p.obs != nil {
		p.obs.TaskQueued(len(tasks))
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		failed   atomic.Bool
	)
	// fail records the first failure and raises the cancellation flag; the
	// flag is stored after the error under the same lock, so any goroutine
	// observing failed==true also observes firstErr through the mutex.
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		failed.Store(true)
		mu.Unlock()
	}
	firstError := func() error {
		mu.Lock()
		defer mu.Unlock()
		return firstErr
	}
	// starts[i] is the UnixNano at which task i began executing, 0 before,
	// -1 after — the watchdog's view of who is in flight and for how long.
	watched := rc.TaskBudget > 0
	var starts []atomic.Int64
	if watched {
		starts = make([]atomic.Int64, len(tasks))
	}
	wg.Add(len(tasks))
	go func() {
		defer p.doneSending()
		for i, t := range tasks {
			if rc.Ctx != nil && !failed.Load() {
				select {
				case <-rc.Ctx.Done():
					fail(rc.Ctx.Err())
				default:
				}
			}
			if failed.Load() {
				wg.Done()
				continue
			}
			var enqueued time.Time
			if p.obs != nil {
				enqueued = time.Now()
			}
			run := func(worker int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						fail(&PanicError{Task: i, Value: r, Stack: debug.Stack()})
					}
				}()
				if watched {
					starts[i].Store(time.Now().UnixNano())
					defer starts[i].Store(-1)
				}
				var began time.Time
				if p.obs != nil {
					began = time.Now()
					p.obs.TaskStart(began.Sub(enqueued).Nanoseconds())
					defer func() { p.obs.TaskDone(time.Since(began).Nanoseconds()) }()
				}
				if failed.Load() {
					return // cancelled after an earlier task failed
				}
				if faults.Fire(faults.SlowWorker) {
					if p.obs != nil {
						p.obs.FaultInjected(faults.SlowWorker)
					}
					time.Sleep(time.Millisecond)
				}
				if faults.Fire(faults.StuckWorker) {
					if p.obs != nil {
						p.obs.FaultInjected(faults.StuckWorker)
					}
					time.Sleep(faults.StuckSleep)
				}
				t(worker)
			}
			p.tasks <- run
		}
	}()
	if !watched {
		wg.Wait()
		return firstError()
	}
	// Watchdog join: wait for completion, but scan in-flight tasks every
	// quarter budget; the first task over budget converts the run into a
	// typed StuckWorkerError without waiting for the stuck goroutine.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	tick := rc.TaskBudget / 4
	if tick < 100*time.Microsecond {
		tick = 100 * time.Microsecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return firstError()
		case <-ticker.C:
			now := time.Now().UnixNano()
			for i := range starts {
				s := starts[i].Load()
				if s <= 0 || now-s <= int64(rc.TaskBudget) {
					continue
				}
				// Stuck even after an earlier failure (a cancelled
				// context): the caller must not read what stragglers write.
				stuck := &guard.StuckWorkerError{
					Task:    i,
					Budget:  rc.TaskBudget,
					Elapsed: time.Duration(now - s),
				}
				fail(stuck)
				return stuck
			}
		}
	}
}

// Close terminates the worker goroutines once no run is still handing out
// tasks (a run a watchdog early return left behind finishes that first).
// Closing a pool twice is a no-op.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed.Swap(true) && p.sending == 0 {
		close(p.tasks)
	}
}

// doneSending ends one run's hand-out, closing tasks if Close came first:
// after a watchdog early return the run's dispatcher may still be sending.
func (p *Pool) doneSending() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sending--; p.sending == 0 && p.closed.Load() {
		close(p.tasks)
	}
}
