package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"libshalom"
)

// workload is one named input set the benchmark drives.
type workload struct {
	name  string
	specs func() []spec
	// Library workloads call a context directly from one goroutine with
	// the given thread width; served workloads send requests from nproc
	// closed-loop clients to backends servers, behind a router if routed.
	library  bool
	threads  int
	backends int
	routed   bool
	// callQuantile, when set, rates the workload by each shape's
	// callQuantile call time instead of by median mix rounds. It suits
	// calls short enough that every shape gets hundreds of samples in a
	// run: interference from other tenants of the host only lengthens
	// calls, and on the small mix it moved the median round by ±10% from
	// run to run and a low quantile of each shape by about a third of that.
	callQuantile float64
}

func workloadByName(name string) (workload, bool) {
	nproc := runtime.NumCPU()
	for _, w := range []workload{
		{name: "small", specs: smallMix, library: true, threads: 1, callQuantile: 0.1},
		{name: "irregular", specs: irregularMix, library: true, threads: nproc},
		{name: "serve", specs: tinyMix, backends: 1},
		{name: "routed", specs: smallMix, backends: 2, routed: true},
	} {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) clients() int {
	if w.library {
		return 1
	}
	return runtime.NumCPU()
}

// sample is one measured operation.
type sample struct {
	dur time.Duration
	op  int32
	ok  bool
}

// clientResult is what one closed-loop client measured.
type clientResult struct {
	samples []sample
	replies []reply // served workloads, one per correct sample
	// busy is the client's time inside timed calls; checking results
	// happens outside it.
	busy      time.Duration
	attempted int
	failed    int
	firstErr  error
}

func (r *clientResult) record(op int, dur time.Duration, ok bool, err error) {
	r.attempted++
	r.busy += dur
	if !ok {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
			if err == nil {
				r.firstErr = fmt.Errorf("result outside its error bound")
			}
		}
	}
	if len(r.samples) < cap(r.samples) {
		r.samples = append(r.samples, sample{dur: dur, op: int32(op), ok: ok})
	}
}

// env is a workload set up and warmed: its ops, and the context or fleet
// that runs them.
type env struct {
	w       workload
	ops     []*op
	lib     *libshalom.Context
	created time.Time
	fleet   *fleet
	tr      *tracer
	ring    int
	warm    clientResult
}

// setup builds a workload's ops, references, context or servers, and
// warms it by running every distinct op once and checking the answer. With
// a tracer the contexts keep up to ring phase spans and every call is
// recorded.
func setup(w workload, seed uint64, tr *tracer, ring int) (*env, error) {
	ops, err := buildOps(w.specs(), seed, !w.library)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, ops: ops, tr: tr, ring: ring}
	if w.library {
		opts := []libshalom.Option{libshalom.WithThreads(w.threads)}
		if tr != nil {
			opts = append(opts, libshalom.WithTelemetryOptions(libshalom.TelemetryOptions{TraceEvents: ring}))
		}
		e.created = time.Now()
		e.lib = libshalom.New(opts...)
	} else if e.fleet, err = startFleet(w.backends, w.routed, w.clients(), tr, ring); err != nil {
		return nil, err
	}
	e.warmUp()
	return e, nil
}

// warmUp runs every distinct op once, checked, into e.warm.
func (e *env) warmUp() {
	for i, o := range e.ops {
		dur, ok, _, err := e.once(o, 0)
		e.warm.record(i, dur, ok, err)
	}
}

func (e *env) close() {
	if e.lib != nil {
		e.lib.Close()
	}
	if e.fleet != nil {
		e.fleet.close()
	}
}

// once runs one op and checks it; reqID > 0 tags a served request.
func (e *env) once(o *op, reqID uint64) (time.Duration, bool, reply, error) {
	if e.fleet != nil {
		return e.fleet.send(o, reqID)
	}
	o.poison()
	t0 := time.Now()
	err := o.call(e.lib)
	dur := time.Since(t0)
	return dur, err == nil && o.correct(o.c32, o.c64), reply{}, err
}

// drive runs the workload's closed-loop clients for d, each with its own
// seeded op sequence, and returns what each measured together with the
// process memory readings around the drive. Result buffers are allocated
// before the first reading, sized from the warm-up's mean op time so they
// neither grow during the drive nor inflate the heap the GC paces
// against. Traced library runs also stop before the context's span ring
// would overwrite itself.
func (e *env) drive(seed uint64, d time.Duration) (res []clientResult, before, after memCounts) {
	n := e.w.clients()
	size := 1 << 20
	if e.warm.attempted > 0 && e.warm.busy > 0 {
		perOp := e.warm.busy / time.Duration(e.warm.attempted)
		size = min(size, 1024+int(2*d/max(perOp, time.Microsecond)))
	}
	res = make([]clientResult, n)
	for c := range res {
		res[c].samples = make([]sample, 0, size)
		if e.fleet != nil {
			res[c].replies = make([]reply, 0, size)
		}
	}
	done := make(chan struct{}, n)
	runtime.GC() // collect set-up's garbage before the window, not during it
	before = readMem()
	stop := time.Now().Add(d)
	for c := 0; c < n; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			e.client(c, newSequence(seed, c, len(e.ops)), stop, &res[c])
		}(c)
	}
	for c := 0; c < n; c++ {
		<-done
	}
	after = readMem()
	return res, before, after
}

func (e *env) client(c int, seq *sequence, stop time.Time, r *clientResult) {
	for reqSeq := uint64(1); time.Now().Before(stop) && len(r.samples) < cap(r.samples); reqSeq++ {
		i := seq.next()
		o := e.ops[i]
		var id uint64
		if e.tr != nil {
			id = requestID(c, reqSeq)
			if e.lib != nil && reqSeq%256 == 0 && e.lib.Snapshot().TraceSpans > uint64(e.ring)*9/10 {
				break
			}
		}
		t0 := time.Now()
		dur, ok, rp, err := e.once(o, id)
		if e.tr != nil {
			name := "client.request"
			if e.lib != nil {
				name = "core.call"
			}
			e.tr.add(span{name: name, pid: clientPid, tid: int32(c), start: e.tr.at(t0), end: e.tr.at(t0.Add(dur)), req: id, queueUS: -1})
		}
		r.record(i, dur, ok, err)
		if ok && e.fleet != nil && len(r.replies) < cap(r.replies) {
			r.replies = append(r.replies, rp)
		}
	}
}

// programTraces reads the phase spans of every context the env built.
func (e *env) programTraces() ([]programTrace, error) {
	var out []programTrace
	if e.lib != nil {
		pt, err := readProgramTrace(e.lib, e.tr, e.created, programPid)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	if e.fleet != nil {
		for i, n := range e.fleet.nodes {
			pt, err := readProgramTrace(n.lib, e.tr, n.created, programPid+int32(i))
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// totals sums attempts and failures over clients.
func totals(res ...clientResult) (attempted, failed int, firstErr error) {
	for _, r := range res {
		attempted += r.attempted
		failed += r.failed
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	return
}

// rates returns the correct answers per second and GFLOP/s summed over
// clients. With q > 0 a client's rate is that of one pass over the mix at
// each shape's q call time (see shapeTime). Otherwise, since each client's
// sequence runs in rounds that cover the distinct ops exactly once, a
// client's rate is taken over its median complete round by busy time, so
// a burst of interference from outside the process moves a few rounds,
// not the figure. A client that finished no round is taken over all its
// samples.
func rates(ops []*op, res []clientResult, q float64) (opsPerSec, gflops float64) {
	for _, r := range res {
		if q > 0 {
			var n, flops, busy float64
			for i, v := range opTimes(len(ops), r) {
				if len(v) > 0 {
					n++
					flops += ops[i].flops()
					busy += shapeTime(v, q) / 1e3
				}
			}
			if busy > 0 {
				opsPerSec += n / busy
				gflops += flops / busy / 1e9
			}
			continue
		}
		type round struct{ ok, flops, busy float64 }
		var rounds []round
		var cur round
		for i, s := range r.samples {
			cur.busy += s.dur.Seconds()
			if s.ok {
				cur.ok++
				cur.flops += ops[s.op].flops()
			}
			if (i+1)%len(ops) == 0 {
				rounds = append(rounds, cur)
				cur = round{}
			}
		}
		if len(rounds) == 0 {
			rounds = append(rounds, cur)
		}
		sort.Slice(rounds, func(i, j int) bool { return rounds[i].busy < rounds[j].busy })
		mid := rounds[len(rounds)/2]
		if mid.busy > 0 {
			opsPerSec += mid.ok / mid.busy
			gflops += mid.flops / mid.busy / 1e9
		}
	}
	return
}

// opTimes returns a client's correct call times in milliseconds, by op.
func opTimes(nops int, r clientResult) [][]float64 {
	perOp := make([][]float64, nops)
	for _, s := range r.samples {
		if s.ok {
			perOp[s.op] = append(perOp[s.op], float64(s.dur.Nanoseconds())/1e6)
		}
	}
	return perOp
}

// shapeTime is the call time a shape is rated by: the mean of its call
// times ranked within q±5%, or their median for q = 0. v is sorted in
// place.
func shapeTime(v []float64, q float64) float64 {
	if q > 0 {
		return bandQuantile(v, q, 0.05)
	}
	return median(v)
}

// endToEnd computes the end-to-end metrics of an untraced drive; q is the
// workload's callQuantile.
func endToEnd(ops []*op, res []clientResult, before, after memCounts, setupS, q float64) map[string]float64 {
	rps, gflops := rates(ops, res, q)
	// Latency quantiles are taken per window and the median window is
	// reported, so one disturbed stretch of the run cannot carry the tail.
	// A window is the same tenth of every client's samples, cut to hold at
	// least 1000 samples so its p99 band has ten beyond it.
	total := 0
	for _, r := range res {
		total += len(r.samples)
	}
	windows := max(1, min(10, total/1000))
	lat := make([][]float64, windows)
	perOp := make([][]float64, len(ops))
	for _, r := range res {
		for i, s := range r.samples {
			if s.ok {
				ms := float64(s.dur.Nanoseconds()) / 1e6
				w := i * windows / len(r.samples)
				lat[w] = append(lat[w], ms)
				perOp[s.op] = append(perOp[s.op], ms)
			}
		}
	}
	var p50, p99 []float64
	for _, v := range lat {
		if len(v) > 0 {
			p50 = append(p50, bandQuantile(v, 0.5, 0.05))
			p99 = append(p99, bandQuantile(v, 0.99, 0.005))
		}
	}
	var perShape []float64
	for i, v := range perOp {
		if len(v) > 0 {
			perShape = append(perShape, ops[i].flops()/shapeTime(v, q)/1e6)
		}
	}
	attempted, _, _ := totals(res...)
	n := math.Max(1, float64(attempted))
	return map[string]float64{
		"gflops":         gflops,
		"gflops_geomean": geomean(perShape),
		"rps":            rps,
		"latency_p50_ms": median(p50),
		"latency_p99_ms": median(p99),
		"allocs_per_op":  float64(after.mallocs-before.mallocs) / n,
		"bytes_per_op":   float64(after.bytes-before.bytes) / n,
		"setup_s":        setupS,
	}
}
