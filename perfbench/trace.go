package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"libshalom"
	"libshalom/internal/server"
)

// Trace lanes: pid clientPid holds the benchmark's own client lanes (one
// per client, tid = client index) and the isolation lane; each backend's
// handler spans get pid backendPid+i; each context's program phase spans
// get pid programPid+i.
const (
	clientPid     = 1
	isolationTid  = 1000
	backendPid    = 10
	programPid    = 100
	requestHeader = "X-Bench-Request"
)

// span is one timed call into a layer, recorded by the benchmark around
// that call. Spans of one request share req; parent names the enclosing
// span ("" for a root).
type span struct {
	name       string
	parent     string
	pid, tid   int32
	start, end int64 // ns since the tracer's epoch
	req        uint64
	queueUS    int64 // server handler spans: the response's queue_wait_us, -1 if unknown
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	busy  map[int32][]bool // per pid: lanes holding an open span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), busy: map[int32][]bool{}} }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span that ran from start until now on one lane.
func (t *tracer) record(name string, pid, tid int32, start time.Time, req uint64) {
	t.add(span{name: name, pid: pid, tid: tid, start: t.at(start), end: t.at(time.Now()), req: req, queueUS: -1})
}

// lane takes a free lane of pid for a span that may overlap others; free
// returns it.
func (t *tracer) lane(pid int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	lanes := t.busy[pid]
	for i, b := range lanes {
		if !b {
			lanes[i] = true
			return int32(i)
		}
	}
	t.busy[pid] = append(lanes, true)
	return int32(len(lanes))
}

func (t *tracer) free(pid, tid int32) {
	t.mu.Lock()
	t.busy[pid][tid] = false
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// requestID is the ID of one client request: the client index in the high
// half, its sequence number in the low half.
func requestID(client int, seq uint64) uint64 { return uint64(client)<<32 | seq }

// wrap returns h with a span around every GEMM request it serves. A
// request carrying the benchmark's request header is the outermost tier:
// its span joins the client's lane and request. Any other request (a
// backend behind the router, which forwards no custom header) gets a
// lane of pid. Server spans also record the queue wait of the response
// they wrote.
func (t *tracer) wrap(h http.Handler, name string, pid int32) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/gemm" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		s := span{name: name, pid: pid, queueUS: -1}
		if id, err := strconv.ParseUint(r.Header.Get(requestHeader), 10, 64); err == nil {
			s.pid, s.tid, s.req, s.parent = clientPid, int32(id>>32), id, "client.request"
		} else {
			s.tid = t.lane(pid)
			defer t.free(pid, s.tid)
		}
		cw := &captureWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		s.start, s.end = t.at(start), t.at(time.Now())
		if rh, ok := cw.responseHeader(); ok {
			s.queueUS = rh.QueueWaitUS
		}
		t.add(s)
	})
}

// captureWriter keeps the first line of a response body: the wire
// response header.
type captureWriter struct {
	http.ResponseWriter
	head []byte
	done bool
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if !c.done {
		if i := bytes.IndexByte(p, '\n'); i >= 0 {
			c.head, c.done = append(c.head, p[:i]...), true
		} else if len(c.head) < server.MaxHeaderBytes {
			c.head = append(c.head, p...)
		}
	}
	return c.ResponseWriter.Write(p)
}

func (c *captureWriter) responseHeader() (server.ResponseHeader, bool) {
	var rh server.ResponseHeader
	if !c.done || json.Unmarshal(c.head, &rh) != nil || rh.Status != "ok" {
		return rh, false
	}
	return rh, true
}

// chromeEvent is one Chrome trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int32          `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// programTrace is the phase spans one context recorded (plan, pack,
// kernel-batch, barrier, ...), read from its existing trace export and
// placed on the tracer's clock.
type programTrace struct {
	events []chromeEvent
	spans  []span
}

// readProgramTrace exports ctx's phase spans. created is when the context
// was built, which is the recorder's epoch to within the constructor's
// run time.
func readProgramTrace(ctx *libshalom.Context, t *tracer, created time.Time, pid int32) (programTrace, error) {
	var buf bytes.Buffer
	if err := ctx.ExportTrace(&buf); err != nil {
		return programTrace{}, fmt.Errorf("exporting phase spans: %w", err)
	}
	var tf struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		return programTrace{}, fmt.Errorf("parsing phase spans: %w", err)
	}
	offsetUS := float64(t.at(created)) / 1e3
	pt := programTrace{events: tf.TraceEvents}
	open := map[int32][]int{} // per lane: indexes of open B events
	for i := range pt.events {
		ev := &pt.events[i]
		ev.TS += offsetUS
		ev.PID = pid
		switch ev.Ph {
		case "B":
			open[ev.TID] = append(open[ev.TID], i)
		case "E":
			st := open[ev.TID]
			if len(st) == 0 {
				return programTrace{}, fmt.Errorf("phase spans: unbalanced E %q on lane %d", ev.Name, ev.TID)
			}
			b := pt.events[st[len(st)-1]]
			open[ev.TID] = st[:len(st)-1]
			s := span{name: b.Name, pid: pid, tid: ev.TID, start: int64(b.TS * 1e3), end: int64(ev.TS * 1e3), queueUS: -1}
			if len(st) > 1 {
				s.parent = pt.events[st[len(st)-2]].Name
			}
			pt.spans = append(pt.spans, s)
		}
	}
	return pt, nil
}

// phaseShares returns, for each program phase, its span time as a share of
// the traced lane time: the summed duration of the root spans of every
// lane (gemm calls on caller lanes, blocks on worker lanes).
func phaseShares(traces []programTrace) map[string]float64 {
	sum := map[string]float64{}
	lane := 0.0
	for _, pt := range traces {
		for _, s := range pt.spans {
			d := float64(s.end - s.start)
			if s.parent == "" {
				lane += d
			}
			sum[phaseKey(s.name)] += d
		}
	}
	out := map[string]float64{}
	for _, p := range []string{"plan", "pack", "kernel-batch", "barrier"} {
		if lane > 0 {
			out[p] = sum[p] / lane
		}
	}
	return out
}

// phaseKey strips the shape suffix of call and block span names.
func phaseKey(name string) string {
	if i := strings.IndexByte(name, ' '); i >= 0 {
		return name[:i]
	}
	return name
}

// writeTrace writes the benchmark's spans and the programs' phase spans as
// one Chrome trace_event file: B/E pairs, balanced and time-ordered on
// every (pid, tid) lane.
func writeTrace(path string, spans []span, programs []programTrace) error {
	evs := ownEvents(spans)
	for _, pt := range programs {
		evs = append(evs, pt.events...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ns"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ownEvents turns spans into B/E events lane by lane. On a lane spans
// either nest or follow one another; a child that outlives its parent by
// clock skew is clipped to the parent's end.
func ownEvents(spans []span) []chromeEvent {
	type laneKey struct{ pid, tid int32 }
	lanes := map[laneKey][]span{}
	for _, s := range spans {
		k := laneKey{s.pid, s.tid}
		lanes[k] = append(lanes[k], s)
	}
	keys := make([]laneKey, 0, len(lanes))
	for k := range lanes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	var evs []chromeEvent
	for _, k := range keys {
		ls := lanes[k]
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].start != ls[j].start {
				return ls[i].start < ls[j].start
			}
			return ls[i].end > ls[j].end
		})
		var stack []span
		closeTo := func(ts int64) {
			for len(stack) > 0 && stack[len(stack)-1].end <= ts {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				evs = append(evs, chromeEvent{Name: top.name, Ph: "E", TS: float64(top.end) / 1e3, PID: k.pid, TID: k.tid})
			}
		}
		for _, s := range ls {
			closeTo(s.start)
			if len(stack) > 0 && s.end > stack[len(stack)-1].end {
				s.end = stack[len(stack)-1].end
			}
			args := map[string]any{}
			if s.req != 0 {
				args["req"] = s.req
			}
			if s.parent != "" {
				args["parent"] = s.parent
			}
			evs = append(evs, chromeEvent{Name: s.name, Cat: "perfbench", Ph: "B", TS: float64(s.start) / 1e3, PID: k.pid, TID: k.tid, Args: args})
			stack = append(stack, s)
		}
		closeTo(1 << 62)
	}
	return evs
}
