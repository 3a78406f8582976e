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
	"libshalom/internal/telemetry"
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

// Pool is a fork-join worker pool with persistent goroutines, standing in
// for the fork-join threading primitive the paper's runtime uses. Both of
// the driver's fork-join sites run on it: the §6 split of one call into its
// partition blocks and the §7.4 spread of a batch's entries. A Pool is safe
// for concurrent runs: each run joins only its own units, and the units of
// concurrent runs reach the workers in the order their runs hand them out.
type Pool struct {
	workers  int
	units    chan unit
	stop     chan struct{}
	stopOnce sync.Once
	tel      *telemetry.Recorder // nil: scheduling is not instrumented
}

// unit is the i-th unit of run r, handed out at the recorder time queued.
type unit struct {
	r      *run
	i      int
	queued int64
}

// run is the join state of one Run.
type run struct {
	rc   RunConfig
	body func(i, worker int) error
	n    int
	// slots is the width semaphore: a unit holds a slot from its hand-out
	// until it finishes.
	slots chan struct{}
	wg    sync.WaitGroup
	// failed is set once, by the first failure, which alone writes err;
	// err is read only after the join.
	failed atomic.Bool
	err    error
	// starts[i] is the UnixNano at which unit i began, 0 before and -1
	// after: the watchdog's view of the units in flight. nil without a
	// budget.
	starts []atomic.Int64
}

// NewPool starts a pool with the given number of worker goroutines
// (minimum 1).
func NewPool(workers int) *Pool { return NewPoolObserved(workers, nil) }

// NewPoolObserved starts a pool whose scheduling events feed tel; a nil
// recorder leaves the pool exactly as cheap as NewPool's.
func NewPoolObserved(workers int, tel *telemetry.Recorder) *Pool {
	p := &Pool{workers: max(workers, 1), units: make(chan unit), stop: make(chan struct{}), tel: tel}
	for i := range p.workers {
		go p.work(i)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// ErrClosed is returned by a run on a pool whose Close has been called.
var ErrClosed = errors.New("parallel: run on closed pool")

// PanicError is returned by a run when a unit panics: the worker goroutine
// recovers (the pool stays usable), units of the same run that have not
// started yet are skipped, and the first panic is reported with the
// goroutine stack captured at the point of recovery.
type PanicError struct {
	Task  int // the unit's index in its run
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", e.Task, e.Value)
}

// RunConfig carries the optional deadline machinery of one run.
type RunConfig struct {
	// Ctx, when non-nil, cancels cooperatively: units not yet handed to a
	// worker are skipped once the context is done, started units still run
	// to completion (the join is preserved), and the run fails with the
	// context's error. This is how per-call deadlines propagate into the
	// pool without abandoning in-flight writers.
	Ctx context.Context
	// TaskBudget, when positive, arms the stuck-worker watchdog: a unit
	// running longer than the budget fails the run with a typed
	// *guard.StuckWorkerError and releases the join immediately — the one
	// case where a run returns before every unit has finished, because a
	// stuck goroutine cannot be killed. The caller must then treat the
	// units' output as undefined (the straggler may still write).
	TaskBudget time.Duration
}

// Run executes units 0..n-1 of body on the pool, at most width of them at
// once, and blocks until every unit handed out has finished (the join of
// fork-join), with the cooperative cancellation and the stuck-worker
// watchdog of rc. body learns the unit's index and the index,
// 0..Workers()-1, of the worker running it.
//
// The first failure — an error a unit returns, a unit's panic (recovered
// into a *PanicError; the worker survives), rc's context or its watchdog —
// fails the run: it is what Run returns, and units not yet handed out are
// skipped. A run on a closed pool returns ErrClosed.
func (p *Pool) Run(rc RunConfig, width, n int, body func(i, worker int) error) error {
	if n <= 0 {
		return nil
	}
	select {
	case <-p.stop:
		return ErrClosed
	default:
	}
	if rc.Ctx != nil {
		if err := rc.Ctx.Err(); err != nil {
			return err
		}
	}
	p.tel.TaskQueued(n)
	r := &run{rc: rc, body: body, n: n, slots: make(chan struct{}, max(1, min(width, n)))}
	if rc.TaskBudget > 0 {
		r.starts = make([]atomic.Int64, n)
	}
	r.wg.Add(1)
	go p.handOut(r)
	if rc.TaskBudget <= 0 {
		r.wg.Wait()
		return r.err
	}
	return r.watch()
}

// RunWorkerCfg runs each task as one unit of a Run as wide as the pool.
func (p *Pool) RunWorkerCfg(rc RunConfig, tasks []func(worker int)) error {
	return p.Run(rc, p.workers, len(tasks), func(i, worker int) error {
		tasks[i](worker)
		return nil
	})
}

// handOut passes the run's units to the workers in index order, each once
// it holds a slot, until every unit is out or the run has failed.
func (p *Pool) handOut(r *run) {
	defer r.wg.Done()
	for i := range r.n {
		select {
		case r.slots <- struct{}{}:
		case <-p.stop:
			r.fail(ErrClosed)
			return
		}
		if r.rc.Ctx != nil {
			if err := r.rc.Ctx.Err(); err != nil {
				r.fail(err)
			}
		}
		if r.failed.Load() {
			return
		}
		r.wg.Add(1)
		select {
		case p.units <- unit{r: r, i: i, queued: p.tel.Now()}:
		case <-p.stop:
			r.wg.Done()
			r.fail(ErrClosed)
			return
		}
	}
}

// work is one worker goroutine: it runs the units handed to it until the
// pool closes.
func (p *Pool) work(worker int) {
	for {
		select {
		case u := <-p.units:
			p.exec(u, worker)
		case <-p.stop:
			return
		}
	}
}

// exec runs one unit unless its run has already failed, then frees the
// unit's slot and joins it.
func (p *Pool) exec(u unit, worker int) {
	r := u.r
	began := p.tel.Now()
	p.tel.TaskStart(began - u.queued)
	if r.starts != nil {
		r.starts[u.i].Store(time.Now().UnixNano())
	}
	defer func() {
		if v := recover(); v != nil {
			r.fail(&PanicError{Task: u.i, Value: v, Stack: debug.Stack()})
		}
		if r.starts != nil {
			r.starts[u.i].Store(-1)
		}
		p.tel.TaskDone(p.tel.Now() - began)
		<-r.slots
		r.wg.Done()
	}()
	if r.failed.Load() {
		return
	}
	if faults.Fire(faults.SlowWorker) {
		p.tel.FaultInjected(faults.SlowWorker)
		time.Sleep(time.Millisecond)
	}
	if faults.Fire(faults.StuckWorker) {
		p.tel.FaultInjected(faults.StuckWorker)
		time.Sleep(faults.StuckSleep)
	}
	if err := r.body(u.i, worker); err != nil {
		r.fail(err)
	}
}

// fail records err as the run's failure unless an earlier one was.
func (r *run) fail(err error) {
	if r.failed.CompareAndSwap(false, true) {
		r.err = err
	}
}

// watch is the watchdog join: it waits for the run, but scans the units in
// flight every quarter budget; the first unit over budget fails the run
// with a typed StuckWorkerError, returned without waiting for the stuck
// goroutine — even after an earlier failure (a cancelled context), since
// the caller must not read what the straggler writes.
func (r *run) watch() error {
	budget := r.rc.TaskBudget
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	ticker := time.NewTicker(max(budget/4, 100*time.Microsecond))
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return r.err
		case <-ticker.C:
			now := time.Now().UnixNano()
			for i := range r.starts {
				s := r.starts[i].Load()
				if s <= 0 || now-s <= int64(budget) {
					continue
				}
				stuck := &guard.StuckWorkerError{Task: i, Budget: budget, Elapsed: time.Duration(now - s)}
				r.fail(stuck)
				return stuck
			}
		}
	}
}

// Close stops the worker goroutines; units already handed out finish. A
// run that Close overlaps may skip its remaining units and fail with
// ErrClosed. Closing twice is a no-op.
func (p *Pool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
}
