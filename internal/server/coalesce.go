package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"libshalom"
	"libshalom/internal/journal"
)

// result is the coalescer's answer to one request.
type result struct {
	status int    // http.StatusOK, 500, 504
	msg    string // error text for non-200 statuses
	// batchSize is how many requests shared the flush (200 only);
	// queueWait how long the request sat in the coalescing queue.
	batchSize int
	queueWait time.Duration
}

// pending is one admitted request waiting in a coalescing queue.
type pending struct {
	req      *Request
	enq      time.Time
	deadline time.Time // zero: no deadline
	waited   bool      // queue-wait telemetry recorded (once, at first flush)
	wait     time.Duration
	done     chan result // buffered; the flusher never blocks on it
}

// classKey is the coalescing unit: requests of one precision, one
// transposition mode and one telemetry shape class share a queue, so one
// flush maps onto one batch call.
type classKey struct {
	f64   bool
	mode  libshalom.Mode
	class libshalom.ShapeClass
}

func (k classKey) String() string {
	prec := "f32"
	if k.f64 {
		prec = "f64"
	}
	return fmt.Sprintf("%s/%v/%s", prec, k.mode, k.class)
}

// classQueue is one per-class coalescing queue. busy is set while a flush
// loop of the class runs: requests that arrive then wait in queue and leave
// together as the loop's next batch.
type classQueue struct {
	key   classKey
	mu    sync.Mutex
	busy  bool
	queue []*pending
	flops float64
}

// coalescer runs the micro-batching core, work-conserving: an admitted
// request to an idle class flushes at once, and requests batch only while
// a flush of their class is running — they leave together when it ends.
// A queue that fills the batch size limit or the queued flops budget
// flushes immediately, busy or not. Each flush is one
// SGEMMBatchCtx/DGEMMBatchCtx call on the shared Context.
type coalescer struct {
	lib  *libshalom.Context
	cfg  Config
	m    *metrics
	jw   *journal.Writer
	base context.Context // parent of every flush's batch context

	mu      sync.Mutex
	classes map[classKey]*classQueue

	// inFlight is the flops of every admitted-but-unanswered request — the
	// backpressure signal admission control sheds on.
	inFlight atomic.Int64
	flushes  sync.WaitGroup
	// draining is set when Drain begins. submit checks it under the class
	// lock, so no flush starts after the drain's sweep of its class to
	// race the drain's Wait.
	draining atomic.Bool
}

func newCoalescer(lib *libshalom.Context, cfg Config) *coalescer {
	base := cfg.BaseContext
	if base == nil {
		base = context.Background() //shalom:allow ctxflow — documented default when the caller sets no BaseContext
	}
	return &coalescer{
		lib:     lib,
		cfg:     cfg,
		m:       newMetrics(lib.TelemetryRecorder()),
		jw:      cfg.Journal,
		base:    base,
		classes: make(map[classKey]*classQueue),
	}
}

func (co *coalescer) class(key classKey) *classQueue {
	co.mu.Lock()
	defer co.mu.Unlock()
	q := co.classes[key]
	if q == nil {
		q = &classQueue{key: key}
		co.classes[key] = q
	}
	return q
}

// submit admits p into its class queue, or refuses it: once a drain has
// begun (the caller answers 503), or when the queue is full or the
// in-flight flops budget is exhausted (the caller sheds with 429). A
// request to an idle class flushes at once; one to a busy class waits for
// the running flush to end, unless it fills the batch-size or flops
// budget, which flushes the queue immediately.
func (co *coalescer) submit(p *pending) bool {
	key := classKey{
		f64:   p.req.F64,
		mode:  p.req.Mode,
		class: libshalom.ClassifyShape(p.req.M, p.req.N, p.req.K),
	}
	flops := p.req.Flops()
	q := co.class(key)
	q.mu.Lock()
	defer q.mu.Unlock()
	if co.draining.Load() || len(q.queue) >= co.cfg.MaxQueue {
		return false
	}
	if co.inFlight.Load()+int64(flops) > co.cfg.MaxInFlightFlops {
		return false
	}
	co.inFlight.Add(int64(flops))
	q.queue = append(q.queue, p)
	q.flops += flops
	if !q.busy || len(q.queue) >= co.cfg.MaxBatch || q.flops >= co.cfg.MaxBatchFlops {
		co.flushLocked(q)
	}
	return true
}

// flushLocked detaches the resident batch (caller holds q.mu) and runs it
// at once. An idle class turns busy and its flush loop takes the batch; a
// busy class's full queue, or the drain's sweep, runs on a goroutine of its
// own beside the loop.
func (co *coalescer) flushLocked(q *classQueue) {
	batch := q.queue
	q.queue, q.flops = nil, 0
	co.flushes.Add(1)
	if q.busy {
		go func() {
			defer co.flushes.Done()
			co.runFlush(q.key, batch)
		}()
		return
	}
	q.busy = true
	go co.loop(q, batch)
}

// loop is a busy class's flush goroutine: it runs batch, then each batch
// that queued during the flush before it, until a flush ends with the
// queue empty and the class goes idle. It holds one flushes count for its
// whole life, so the count never touches zero between two of its batches
// while Drain waits.
func (co *coalescer) loop(q *classQueue, batch []*pending) {
	defer co.flushes.Done()
	for len(batch) > 0 {
		co.runFlush(q.key, batch)
		batch = co.flushEnded(q)
	}
}

// flushEnded ends a flush of the busy class q: the requests that queued
// meanwhile leave as the next batch, or, with none, the class goes idle.
func (co *coalescer) flushEnded(q *classQueue) []*pending {
	q.mu.Lock()
	defer q.mu.Unlock()
	batch := q.queue
	q.queue, q.flops = nil, 0
	q.busy = len(batch) > 0
	return batch
}

// flushAll force-flushes every resident batch, busy class or not — the
// drain path.
func (co *coalescer) flushAll() {
	co.mu.Lock()
	queues := make([]*classQueue, 0, len(co.classes))
	for _, q := range co.classes {
		queues = append(queues, q)
	}
	co.mu.Unlock()
	for _, q := range queues {
		q.mu.Lock()
		if len(q.queue) > 0 {
			co.flushLocked(q)
		}
		q.mu.Unlock()
	}
}

// runFlush executes one detached batch: expired requests are answered 504
// before any compute, the rest run as one batch call. A deadline that fires
// mid-batch splits the outcome per entry — completed entries answer 200
// with their results, expired entries 504, and entries cancelled with time
// remaining re-flush until each completes or expires.
func (co *coalescer) runFlush(key classKey, batch []*pending) {
	// Anchor after the flush's events land, so every flush closes a journal
	// batch under one merkle root.
	defer co.jw.Anchor()
	now := time.Now()
	live := batch[:0:0]
	for _, p := range batch {
		co.recordWait(p, now)
		if !p.deadline.IsZero() && now.After(p.deadline) {
			co.m.expired.Add(1)
			co.finish(p, result{status: http.StatusGatewayTimeout, msg: "deadline expired before flush"})
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	size := len(live)
	co.m.batchSize.Observe(float64(size))
	if size > 1 {
		co.m.coalesced.Add(uint64(size))
	}
	if co.jw.Enabled() {
		var flops float64
		for _, p := range live {
			flops += p.req.Flops()
		}
		co.jw.Flush(key.String(), size, flops)
	}
	remaining := live
	for len(remaining) > 0 {
		err := co.dispatch(key, remaining)
		if err == nil {
			for _, p := range remaining {
				co.finish(p, result{status: http.StatusOK, batchSize: size, queueWait: p.wait})
			}
			return
		}
		done, ok := libshalom.BatchCompleted(err)
		if !ok {
			// A whole-batch failure — kernel panic with retries disabled, a
			// stuck worker, pool misuse. Only this batch's requests see it.
			for _, p := range remaining {
				co.finish(p, result{status: http.StatusInternalServerError, msg: err.Error()})
			}
			return
		}
		// The batch deadline (the earliest member's) fired: split per entry.
		now = time.Now()
		next := remaining[:0:0]
		for i, p := range remaining {
			switch {
			case i < len(done) && done[i]:
				co.finish(p, result{status: http.StatusOK, batchSize: size, queueWait: p.wait})
			case !p.deadline.IsZero() && now.After(p.deadline):
				co.m.expired.Add(1)
				co.finish(p, result{status: http.StatusGatewayTimeout, msg: "deadline exceeded before completion"})
			default:
				next = append(next, p)
			}
		}
		if len(next) == len(remaining) {
			// No entry completed or expired — cancellation without progress
			// (a razor-thin deadline). Answer 504 rather than spinning.
			for _, p := range next {
				co.finish(p, result{status: http.StatusGatewayTimeout, msg: "deadline exceeded before completion"})
			}
			return
		}
		remaining = next
	}
}

// dispatch runs one batch call over the remaining requests, bounded by the
// earliest member deadline.
func (co *coalescer) dispatch(key classKey, remaining []*pending) error {
	ctx := co.base
	if min, ok := minDeadline(remaining); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, min)
		defer cancel()
	}
	if key.f64 {
		entries := make([]libshalom.DBatchEntry, len(remaining))
		for i, p := range remaining {
			r := p.req
			_, aCols, _, bCols := storedDims(r.Mode, r.M, r.N, r.K)
			entries[i] = libshalom.DBatchEntry{
				M: r.M, N: r.N, K: r.K,
				Alpha: r.Alpha, A: r.A64, LDA: aCols,
				B: r.B64, LDB: bCols,
				Beta: r.Beta, C: r.C64, LDC: r.N,
			}
		}
		return co.lib.DGEMMBatchCtx(ctx, key.mode, entries)
	}
	entries := make([]libshalom.SBatchEntry, len(remaining))
	for i, p := range remaining {
		r := p.req
		_, aCols, _, bCols := storedDims(r.Mode, r.M, r.N, r.K)
		entries[i] = libshalom.SBatchEntry{
			M: r.M, N: r.N, K: r.K,
			Alpha: float32(r.Alpha), A: r.A32, LDA: aCols,
			B: r.B32, LDB: bCols,
			Beta: float32(r.Beta), C: r.C32, LDC: r.N,
		}
	}
	return co.lib.SGEMMBatchCtx(ctx, key.mode, entries)
}

func minDeadline(remaining []*pending) (time.Time, bool) {
	var min time.Time
	for _, p := range remaining {
		if p.deadline.IsZero() {
			continue
		}
		if min.IsZero() || p.deadline.Before(min) {
			min = p.deadline
		}
	}
	return min, !min.IsZero()
}

// recordWait records the request's queue wait once, at its first flush, for
// its response header.
//
//shalom:hotpath noalloc
func (co *coalescer) recordWait(p *pending, now time.Time) {
	if p.waited {
		return
	}
	p.waited = true
	p.wait = now.Sub(p.enq)
}

// finish releases the request's in-flight flops reservation and delivers
// its result.
//
//shalom:hotpath noalloc
func (co *coalescer) finish(p *pending, res result) {
	co.inFlight.Add(-int64(p.req.Flops()))
	p.done <- res
}
