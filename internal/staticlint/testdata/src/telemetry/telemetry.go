// Package telemetry is a staticlint fixture for the telemetrypure
// analyzer: a Recorder with guarded and unguarded writers (direct and
// through a metric handle), one read-only method, and a metric handle that
// writes before its nil guard.
package telemetry

import "sync/atomic"

// Recorder mirrors the real recorder's nil-receiver contract.
type Recorder struct {
	calls   atomic.Uint64
	gauge   int64
	counter *Counter
}

// Guarded opens with the nil guard: clean.
func (r *Recorder) Guarded() {
	if r == nil {
		return
	}
	r.calls.Add(1)
}

// GuardedDisjunct keeps the guard as the first || disjunct: clean.
func (r *Recorder) GuardedDisjunct(skip bool) {
	if r == nil || skip {
		return
	}
	r.calls.Add(1)
}

// Unguarded writes atomically without the guard: finding at line 33.
func (r *Recorder) Unguarded() {
	r.calls.Add(1)
}

// PlainWrite assigns receiver state without the guard: finding at line 38.
func (r *Recorder) PlainWrite(v int64) {
	r.gauge = v
}

// ReadOnly never writes; no guard required.
func (r *Recorder) ReadOnly() uint64 {
	return r.calls.Load()
}

// HandleWrite writes through a metric handle held in receiver state
// without the guard: finding at line 49.
func (r *Recorder) HandleWrite() {
	r.counter.Add(1)
}

// Counter mirrors a registry handle: a nil *Counter must record nothing.
type Counter struct{ v atomic.Uint64 }

// Add writes before its nil guard: finding at line 57.
func (c *Counter) Add(n uint64) {
	c.v.Add(n)
	if c == nil {
		return
	}
}
