package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event export: every buffered span becomes one B/E pair in
// the JSON Array Format with an enclosing {"traceEvents": ...} object, the
// layout chrome://tracing and Perfetto load directly. Timestamps are
// microseconds (fractional) since the recorder epoch; lanes (tid) are
// worker indices plus per-call caller lanes, so the span tree renders
// plan → pack → block → kernel-batch nesting per lane.

// traceEvent is one exported trace_event record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTrace exports the buffered spans as Chrome trace_event JSON. The
// export is a consistent copy: spans recorded concurrently with the export
// are either wholly present or wholly absent. Returns the number of spans
// exported.
func (r *Recorder) WriteTrace(w io.Writer) (int, error) {
	if r == nil || r.trace == nil {
		return 0, fmt.Errorf("telemetry: tracing disabled")
	}
	evs, _, _ := r.trace.snapshot()

	// Emit B and E records globally sorted by timestamp. Ties are ordered
	// so nesting survives: ends before begins (a span closing at t must
	// close before a sibling opens at t), inner ends before outer ends
	// (later start first), outer begins before inner begins (longer
	// duration first).
	type item struct {
		ts    int64
		end   bool
		start int64
		dur   int64
		level int
		ev    int
	}
	items := make([]item, 0, 2*len(evs))
	for i, ev := range evs {
		lv := phaseLevel(ev.phase)
		items = append(items, item{ts: ev.start, start: ev.start, dur: ev.dur, level: lv, ev: i})
		items = append(items, item{ts: ev.start + ev.dur, end: true, start: ev.start, dur: ev.dur, level: lv, ev: i})
	}
	sort.SliceStable(items, func(a, b int) bool {
		x, y := items[a], items[b]
		if x.ts != y.ts {
			return x.ts < y.ts
		}
		if x.end != y.end {
			return x.end
		}
		if x.end { // inner closes first: deeper level, then later start
			if x.level != y.level {
				return x.level > y.level
			}
			return x.start > y.start
		}
		// outer opens first: shallower level, then longer duration
		if x.level != y.level {
			return x.level < y.level
		}
		return x.dur > y.dur
	})

	out := traceFile{DisplayTimeUnit: "ns", TraceEvents: make([]traceEvent, 0, len(items))}
	for _, it := range items {
		ev := evs[it.ev]
		te := traceEvent{
			Name: spanName(ev),
			Cat:  "libshalom",
			Ph:   "B",
			TS:   float64(it.ts) / 1e3,
			PID:  1,
			TID:  ev.tid,
		}
		if it.end {
			te.Ph = "E"
		} else if ev.phase == PhaseCall || ev.phase == PhaseBlock {
			te.Args = map[string]any{"m": ev.m, "n": ev.n, "k": ev.k, "mode": modeNames[ev.mode%numMode]}
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}
	enc := json.NewEncoder(w)
	return len(evs), enc.Encode(out)
}

// phaseLevel is the static nesting depth of a phase, used to order
// same-timestamp begins/ends so the exported tree stays properly nested
// even when clock granularity collapses a parent and child onto one tick.
func phaseLevel(p uint8) int {
	switch p {
	case PhaseCall:
		return 0
	case PhasePlan, PhaseBarrier:
		return 1
	case PhaseBlock:
		return 2
	default: // pack, kernel-batch
		return 3
	}
}

func spanName(ev event) string {
	switch ev.phase {
	case PhaseCall:
		return fmt.Sprintf("gemm %s %s %dx%dx%d",
			modeNames[ev.mode%numMode], precNames[ev.prec%numPrec], ev.m, ev.n, ev.k)
	case PhaseBlock:
		return fmt.Sprintf("block %dx%d", ev.m, ev.n)
	default:
		return PhaseName(ev.phase)
	}
}

// ValidateTrace checks an exported trace against the trace_event contract
// the exporter promises: well-formed JSON in the object-wrapped array
// format, every record carrying name/ph/ts/tid, per-lane timestamps
// monotonically non-decreasing, and B/E records forming balanced,
// name-matched pairs per lane. Used by the end-to-end trace test
// (internal/e2e) and the trace tests; returns nil on a conforming trace.
func ValidateTrace(rd io.Reader) error {
	var tf struct {
		TraceEvents []struct {
			Name *string  `json:"name"`
			Ph   *string  `json:"ph"`
			TS   *float64 `json:"ts"`
			TID  *int32   `json:"tid"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&tf); err != nil {
		return fmt.Errorf("telemetry: trace is not valid JSON: %w", err)
	}
	if tf.TraceEvents == nil {
		return fmt.Errorf("telemetry: trace has no traceEvents array")
	}
	type open struct {
		name string
		ts   float64
	}
	stacks := map[int32][]open{}
	lastTS := map[int32]float64{}
	for i, ev := range tf.TraceEvents {
		if ev.Name == nil || ev.Ph == nil || ev.TS == nil || ev.TID == nil {
			return fmt.Errorf("telemetry: event %d missing name/ph/ts/tid", i)
		}
		tid := *ev.TID
		if prev, ok := lastTS[tid]; ok && *ev.TS < prev {
			return fmt.Errorf("telemetry: event %d: timestamp %v precedes %v on lane %d", i, *ev.TS, prev, tid)
		}
		lastTS[tid] = *ev.TS
		switch *ev.Ph {
		case "B":
			stacks[tid] = append(stacks[tid], open{name: *ev.Name, ts: *ev.TS})
		case "E":
			st := stacks[tid]
			if len(st) == 0 {
				return fmt.Errorf("telemetry: event %d: E %q on lane %d with no open B", i, *ev.Name, tid)
			}
			top := st[len(st)-1]
			if top.name != *ev.Name {
				return fmt.Errorf("telemetry: event %d: E %q does not match open B %q on lane %d", i, *ev.Name, top.name, tid)
			}
			stacks[tid] = st[:len(st)-1]
		default:
			return fmt.Errorf("telemetry: event %d: unsupported phase %q", i, *ev.Ph)
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			return fmt.Errorf("telemetry: lane %d ends with %d unbalanced B events (first %q)", tid, len(st), st[0].name)
		}
	}
	return nil
}
