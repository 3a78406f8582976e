package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"libshalom"
	"libshalom/internal/guard"
	"libshalom/internal/kernels"
	"libshalom/internal/pack"
	"libshalom/internal/parallel"
	"libshalom/internal/server"
	"libshalom/internal/telemetry"
)

// Layer-isolation pass: each layer's entry point timed alone, on the
// shapes and payloads the workload uses, with every buffer allocated
// before timing. Each timed item is one span on the isolation lane.

// isolation holds what the pass needs across items.
type isolation struct {
	w      workload
	ops    []*op
	tr     *tracer
	budget time.Duration // per timed item
	plan   *libshalom.Context
	out    map[string]float64
}

// timed measures fn per call within the item budget, inside one span.
func (is *isolation) timed(name string, fn func(n int)) float64 {
	t0 := time.Now()
	ns := timePerCall(is.budget, fn)
	is.tr.record("isolate."+name, clientPid, isolationTid, t0, 0)
	return ns
}

// isolate runs the pass and returns its metrics by name.
func isolate(w workload, ops []*op, tr *tracer, total time.Duration) (map[string]float64, error) {
	// Thirteen fixed items plus one per micro-kernel tile and one per op
	// for the three codecs share the budget.
	items := 13 + 4*len(ops)
	is := &isolation{
		w: w, ops: ops, tr: tr,
		budget: max(total/time.Duration(items), 5*time.Millisecond),
		plan:   libshalom.New(libshalom.WithThreads(w.threads)),
		out:    map[string]float64{},
	}
	defer is.plan.Close()
	is.micro()
	is.pack()
	is.tiny()
	is.allocs()
	is.guard()
	is.parallel()
	is.batch()
	if err := is.codecs(); err != nil {
		return nil, err
	}
	return is.out, nil
}

// tile returns the register tile and panel depth a call of o runs with.
func (is *isolation) tile(o *op) (mr, nr, kc, nc int) {
	p := is.plan.PlanFor(o.mode, o.m, o.n, o.k, o.elemBytes())
	return p.Tile.MR, p.Tile.NR, min(p.Blocking.KC, o.k), min(p.Blocking.NC, o.n)
}

func filled32(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(i%7) - 3
	}
	return v
}

func filled64(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i%7) - 3
	}
	return v
}

// micro: kernels.micro_gflops, the geometric mean over the workload's
// distinct (precision, mr, nr, kc) tiles of the micro-kernel alone.
func (is *isolation) micro() {
	type key struct {
		f64        bool
		mr, nr, kc int
	}
	seen := map[key]bool{}
	var rates []float64
	for _, o := range is.ops {
		mr, nr, kc, _ := is.tile(o)
		k := key{o.f64, mr, nr, kc}
		if seen[k] {
			continue
		}
		seen[k] = true
		var ns float64
		if o.f64 {
			a, b, c := filled64(mr*kc), filled64(kc*nr), make([]float64, mr*nr)
			ns = is.timed("kernels.micro", func(n int) {
				for i := 0; i < n; i++ {
					kernels.DGEMMMicro(mr, nr, kc, 1, a, kc, b, nr, 0, c, nr)
				}
			})
		} else {
			a, b, c := filled32(mr*kc), filled32(kc*nr), make([]float32, mr*nr)
			ns = is.timed("kernels.micro", func(n int) {
				for i := 0; i < n; i++ {
					kernels.SGEMMMicro(mr, nr, kc, 1, a, kc, b, nr, 0, c, nr)
				}
			})
		}
		rates = append(rates, 2*float64(mr*nr*kc)/ns)
	}
	is.out["kernels.micro_gflops"] = geomean(rates)
}

// pack: pack.gbps, the B-panel packing rate over the workload's first
// (kc × nc) panel of every op, in computed bytes (each element read once
// and written once) per second.
func (is *isolation) pack() {
	type panel struct {
		o      *op
		kc, nc int
		dst32  []float32
		dst64  []float64
	}
	var panels []panel
	var bytesPerRep float64
	for _, o := range is.ops {
		_, _, kc, nc := is.tile(o)
		p := panel{o: o, kc: kc, nc: nc}
		if o.f64 {
			p.dst64 = make([]float64, kc*nc)
		} else {
			p.dst32 = make([]float32, kc*nc)
		}
		panels = append(panels, p)
		bytesPerRep += 2 * float64(kc*nc*o.elemBytes())
	}
	ns := is.timed("pack.panels", func(n int) {
		for i := 0; i < n; i++ {
			for _, p := range panels {
				o := p.o
				switch {
				case o.f64 && o.mode.TransB():
					pack.PackBTransposedF64(p.dst64, o.b64, o.ldb, 0, 0, p.kc, p.nc)
				case o.f64:
					pack.PackBF64(p.dst64, o.b64, o.ldb, 0, 0, p.kc, p.nc)
				case o.mode.TransB():
					pack.PackBTransposedF32(p.dst32, o.b32, o.ldb, 0, 0, p.kc, p.nc)
				default:
					pack.PackBF32(p.dst32, o.b32, o.ldb, 0, 0, p.kc, p.nc)
				}
			}
		}
	})
	is.out["pack.gbps"] = bytesPerRep / ns
}

// tiny: core.tiny_call_ns, one single-threaded SGEMM 8³ through the
// public context, and core.overhead_ns, that minus the micro-kernel calls
// SGEMM makes for the same tile.
func (is *isolation) tiny() {
	const s = 8
	ctx := libshalom.New(libshalom.WithThreads(1))
	defer ctx.Close()
	a, b, c := filled32(s*s), filled32(s*s), make([]float32, s*s)
	call := is.timed("core.tiny_call", func(n int) {
		for i := 0; i < n; i++ {
			_ = ctx.SGEMM(libshalom.NN, s, s, s, 1, a, s, b, s, 0, c, s)
		}
	})
	p := ctx.PlanFor(libshalom.NN, s, s, s, 4)
	mr := p.Tile.MR
	micro := is.timed("kernels.micro_tiny", func(n int) {
		for i := 0; i < n; i++ {
			for r := 0; r < s; r += mr {
				kernels.SGEMMMicro(min(mr, s-r), s, s, 1, a[r*s:], s, b, s, 0, c[r*s:], s)
			}
		}
	})
	is.out["core.tiny_call_ns"] = call
	is.out["core.overhead_ns"] = call - micro
}

// allocs: core.allocs_per_call.{NN,NT} and core.bytes_per_call.{NN,NT},
// exact whole-process counts per f32 call over the workload's distinct
// shapes, through a context with the workload's thread width.
func (is *isolation) allocs() {
	ctx := libshalom.New(libshalom.WithThreads(is.w.threads))
	defer ctx.Close()
	type shape struct{ m, n, k int }
	for _, mode := range []libshalom.Mode{libshalom.NN, libshalom.NT} {
		var calls, mallocs, bytes float64
		seen := map[shape]bool{}
		for _, o := range is.ops {
			sh := shape{o.m, o.n, o.k}
			if o.f64 || seen[sh] {
				continue
			}
			seen[sh] = true
			a, b, c := filled32(o.m*o.k), filled32(o.k*o.n), make([]float32, o.m*o.n)
			ldb := o.n
			if mode.TransB() {
				ldb = o.k
			}
			run := func() { _ = ctx.SGEMM(mode, o.m, o.n, o.k, 1, a, o.k, b, ldb, 0, c, o.n) }
			run()
			reps := int(math.Max(1, math.Min(64, 2e8/o.flops())))
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for i := 0; i < reps; i++ {
				run()
			}
			runtime.ReadMemStats(&ms1)
			calls += float64(reps)
			mallocs += float64(ms1.Mallocs - ms0.Mallocs)
			bytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		}
		is.out["core.allocs_per_call."+mode.String()] = mallocs / calls
		is.out["core.bytes_per_call."+mode.String()] = bytes / calls
	}
}

// guard: guard.dispatch_ns, the breaker routing decision, and
// guard.override_lookup_ns, the tuned-tile lookup, both for the
// workload's first op.
func (is *isolation) guard() {
	o := is.ops[0]
	plat := is.plan.Platform().Name
	path := guard.PathFor(o.elemBytes())
	class := uint8(telemetry.ClassifyShape(o.m, o.n, o.k))
	is.out["guard.dispatch_ns"] = is.timed("guard.dispatch", func(n int) {
		for i := 0; i < n; i++ {
			guard.Dispatch(plat, path, 1)
		}
	})
	is.out["guard.override_lookup_ns"] = is.timed("guard.override_lookup", func(n int) {
		for i := 0; i < n; i++ {
			guard.OverrideFor(o.elemBytes(), class)
		}
	})
}

// parallel: parallel.run_us, one fork-join of nproc no-op tasks.
func (is *isolation) parallel() {
	workers := runtime.NumCPU()
	pool := parallel.NewPool(workers)
	defer pool.Close()
	tasks := make([]func(int), workers)
	for i := range tasks {
		tasks[i] = func(int) {}
	}
	is.out["parallel.run_us"] = is.timed("parallel.run", func(n int) {
		for i := 0; i < n; i++ {
			_ = pool.RunWorkerCfg(parallel.RunConfig{}, tasks)
		}
	}) / 1e3
}

// batch: batch.entry_us.{1,2,64}, the batch path's time per 8³ entry at
// three batch sizes, through a context with the automatic policy (the
// serving configuration).
func (is *isolation) batch() {
	const s = 8
	ctx := libshalom.New()
	defer ctx.Close()
	entries := make([]libshalom.SBatchEntry, 64)
	for i := range entries {
		entries[i] = libshalom.SBatchEntry{
			M: s, N: s, K: s, Alpha: 1,
			A: filled32(s * s), LDA: s, B: filled32(s * s), LDB: s, C: make([]float32, s*s), LDC: s,
		}
	}
	bg := context.Background()
	for _, size := range []int{1, 2, 64} {
		batch := entries[:size]
		ns := is.timed(fmt.Sprintf("batch.%d", size), func(n int) {
			for i := 0; i < n; i++ {
				_ = ctx.SGEMMBatchCtx(bg, libshalom.NN, batch)
			}
		})
		is.out[fmt.Sprintf("batch.entry_us.%d", size)] = ns / 1e3 / float64(size)
	}
}

// codecs: server.decode_us, server.encode_us and
// server.decode_response_us, the wire codecs' mean per-op time over the
// workload's distinct ops. Bodies are built one op at a time so large
// irregular payloads are not all resident at once.
func (is *isolation) codecs() error {
	var dec, enc, decResp float64
	for _, o := range is.ops {
		body := o.body
		if body == nil {
			var err error
			if body, err = o.encode(); err != nil {
				return err
			}
		}
		resp, err := responseBody(o)
		if err != nil {
			return err
		}
		var rd bytes.Reader
		dec += is.timed("server.decode", func(n int) {
			for i := 0; i < n; i++ {
				rd.Reset(body)
				_, _ = server.DecodeRequest(&rd, 0, 0)
			}
		})
		var buf bytes.Buffer
		buf.Grow(len(body))
		h := o.header()
		enc += is.timed("server.encode", func(n int) {
			for i := 0; i < n; i++ {
				buf.Reset()
				_ = server.EncodeRequest(&buf, h, o.a32, o.b32, nil, o.a64, o.b64, nil)
			}
		})
		decResp += is.timed("server.decode_response", func(n int) {
			for i := 0; i < n; i++ {
				rd.Reset(resp)
				_, _, _, _ = server.DecodeResponse(&rd, o.m, o.n, o.f64)
			}
		})
	}
	n := float64(len(is.ops)) * 1e3
	is.out["server.decode_us"] = dec / n
	is.out["server.encode_us"] = enc / n
	is.out["server.decode_response_us"] = decResp / n
	return nil
}

// responseBody is the wire response a server sends for o: the header line
// and the reference result.
func responseBody(o *op) ([]byte, error) {
	line, err := json.Marshal(server.ResponseHeader{Status: "ok", BatchSize: 1})
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(append(line, '\n'))
	if o.f64 {
		err = binary.Write(buf, binary.LittleEndian, o.ref64)
	} else {
		err = binary.Write(buf, binary.LittleEndian, o.ref32)
	}
	return buf.Bytes(), err
}
