package libshalom

// Runtime telemetry. A Context built WithTelemetry instruments the whole
// execution path — dispatch, thread policy, packing, micro-kernel batches,
// pool scheduling, guard demotions and fault injections — at near-zero
// cost: metrics are sharded atomic counters and log-bucketed histograms,
// traces go into a fixed-size ring buffer, and a Context without telemetry
// performs zero additional atomic writes and zero additional allocations on
// the hot path (proven by shalom-vet's telemetrypure analyzer and pinned by
// AllocsPerRun tests; see DESIGN.md §8).

import (
	"io"
	"net/http"

	"libshalom/internal/telemetry"
)

// TelemetrySnapshot is an aggregated copy of a context's metrics: per-
// (precision, mode, shape class, kernel, outcome) call counts with latency
// and achieved-GFLOPS histograms, pool scheduling gauges, thread-policy
// accounting, and degradation/fault event counters.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryCallStat is one aggregated (precision, mode, shape class,
// kernel, outcome) row of a TelemetrySnapshot.
type TelemetryCallStat = telemetry.CallStat

// ShapeClass is the low-cardinality workload regime metrics are keyed by:
// empty, tiny, small (the §7.2 small-GEMM regime), medium, large, or
// irregular (the §6 regime).
type ShapeClass = telemetry.ShapeClass

// ClassifyShape reports the shape class of an M×N×K problem — the same
// classification PlanFor records in Plan.ShapeClass.
func ClassifyShape(m, n, k int) ShapeClass { return telemetry.ClassifyShape(m, n, k) }

// TelemetryOptions configures the telemetry layer.
type TelemetryOptions = telemetry.Options

// WithTelemetry enables runtime telemetry on the context: metrics always,
// plus phase-span tracing into a ring buffer of the default capacity
// (8192 spans). Use WithTelemetryOptions to size or disable the trace ring.
func WithTelemetry() Option {
	return func(c *Context) { c.cfg.Tel = telemetry.New(telemetry.Options{}) }
}

// WithTelemetryOptions enables runtime telemetry with explicit options.
func WithTelemetryOptions(o TelemetryOptions) Option {
	return func(c *Context) { c.cfg.Tel = telemetry.New(o) }
}

// TelemetryEnabled reports whether the context records telemetry.
func (c *Context) TelemetryEnabled() bool { return c.cfg.Tel != nil }

// TelemetryRecorder exposes the context's recorder to in-module subsystems
// (internal/server) that record their own events — admission, shedding,
// coalescing — next to the driver's, so one scrape shows the whole pipeline.
// Returns nil when telemetry is disabled; every recorder method no-ops on a
// nil receiver, so callers need not check.
func (c *Context) TelemetryRecorder() *telemetry.Recorder { return c.cfg.Tel }

// Snapshot aggregates the context's telemetry into an exposition-ready
// value; Snapshot on a context without telemetry returns the zero value.
// Safe to call while GEMM traffic is in flight.
func (c *Context) Snapshot() TelemetrySnapshot { return c.cfg.Tel.Snapshot() }

// WritePrometheus renders the context's telemetry in the Prometheus text
// exposition format.
func (c *Context) WritePrometheus(w io.Writer) error {
	return c.cfg.Tel.Snapshot().WritePrometheus(w)
}

// ExportTrace writes the buffered phase spans as Chrome trace_event JSON,
// loadable in chrome://tracing or ui.perfetto.dev. Returns an error when
// telemetry or tracing is disabled.
func (c *Context) ExportTrace(w io.Writer) error {
	_, err := c.cfg.Tel.WriteTrace(w)
	return err
}

// TelemetryHandler returns the opt-in live-exposition HTTP endpoint
// (GET /metrics, /snapshot, /trace) for the context, and false when
// telemetry is disabled. The library never opens a listener itself; mount
// the handler wherever service policy allows:
//
//	if h, ok := ctx.TelemetryHandler(); ok {
//		go http.ListenAndServe("localhost:9090", h)
//	}
func (c *Context) TelemetryHandler() (http.Handler, bool) {
	if c.cfg.Tel == nil {
		return nil, false
	}
	return c.cfg.Tel.Handler(), true
}

// PublishExpvar publishes the context's live telemetry snapshot under the
// given expvar name (served by the standard /debug/vars endpoint). expvar
// panics on duplicate names, so publish once per process per name; returns
// false without publishing when telemetry is disabled.
func (c *Context) PublishExpvar(name string) bool {
	if c.cfg.Tel == nil {
		return false
	}
	telemetry.PublishExpvar(name, c.cfg.Tel)
	return true
}
