package libshalom

// Benchmark harness: one testing.B benchmark per paper table/figure (the
// model-driven reproductions from internal/bench; see DESIGN.md §4 and
// EXPERIMENTS.md), plus wall-clock benchmarks of this library's actual Go
// GEMM on the paper's workload classes.

import (
	"io"
	"testing"

	"libshalom/internal/baselines"
	"libshalom/internal/bench"
	"libshalom/internal/core"
	"libshalom/internal/kernels"
	"libshalom/internal/mat"
	"libshalom/internal/workloads"
)

// --- real wall-clock GEMM benchmarks (this library's Go implementation) ---

func benchSGEMM(b *testing.B, mode Mode, m, n, k, threads int) {
	b.Helper()
	rng := mat.NewRNG(1)
	ar, ac := m, k
	if mode.TransA() {
		ar, ac = k, m
	}
	br, bc := k, n
	if mode.TransB() {
		br, bc = n, k
	}
	A := mat.RandomF32(ar, ac, rng)
	B := mat.RandomF32(br, bc, rng)
	C := mat.NewF32(m, n)
	ctx := New(WithThreads(threads))
	defer ctx.Close()
	b.SetBytes(int64(2 * m * n * k)) // flops reported as "bytes" throughput
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.SGEMM(mode, m, n, k, 1, A.Data, A.Stride, B.Data, B.Stride, 0, C.Data, C.Stride); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSGEMMSmall8(b *testing.B)    { benchSGEMM(b, NN, 8, 8, 8, 1) }
func BenchmarkSGEMMSmall32(b *testing.B)   { benchSGEMM(b, NN, 32, 32, 32, 1) }
func BenchmarkSGEMMSmall120(b *testing.B)  { benchSGEMM(b, NN, 120, 120, 120, 1) }
func BenchmarkSGEMMSmall32NT(b *testing.B) { benchSGEMM(b, NT, 32, 32, 32, 1) }

func BenchmarkSGEMMIrregular(b *testing.B)         { benchSGEMM(b, NT, 32, 2048, 512, 1) }
func BenchmarkSGEMMIrregularParallel(b *testing.B) { benchSGEMM(b, NT, 64, 4096, 576, 0) }

// BenchmarkTelemetryOff/On compare the 64x64x64 SGEMM hot path without and
// with the telemetry layer. The overhead budget is <2% for the disabled
// path; wall-clock deltas at that scale are noise on shared CI machines, so
// the budget is enforced non-flakily instead: shalom-vet's telemetrypure
// analyzer (run in go test by internal/staticlint's TestModuleClean)
// proves the disabled path performs zero telemetry writes, and
// TestTelemetryOffHotPathAllocs pins zero allocations. These benchmarks
// exist to measure the enabled path's real cost locally:
// `go test -bench 'TelemetryO(n|ff)' -count 10`.
func BenchmarkTelemetryOff(b *testing.B) { benchTelemetry(b, New(WithThreads(1))) }
func BenchmarkTelemetryOn(b *testing.B)  { benchTelemetry(b, New(WithThreads(1), WithTelemetry())) }

func benchTelemetry(b *testing.B, ctx *Context) {
	b.Helper()
	defer ctx.Close()
	rng := mat.NewRNG(1)
	A := mat.RandomF32(64, 64, rng)
	B := mat.RandomF32(64, 64, rng)
	C := mat.NewF32(64, 64)
	b.SetBytes(2 * 64 * 64 * 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.SGEMM(NN, 64, 64, 64, 1, A.Data, A.Stride, B.Data, B.Stride, 0, C.Data, C.Stride); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDGEMMCP2K(b *testing.B) {
	rng := mat.NewRNG(2)
	for _, sh := range workloads.CP2K() {
		sh := sh
		b.Run(sh.Name, func(b *testing.B) {
			A := mat.RandomF64(sh.M, sh.K, rng)
			B := mat.RandomF64(sh.K, sh.N, rng)
			C := mat.NewF64(sh.M, sh.N)
			ctx := New(WithThreads(1))
			b.SetBytes(int64(sh.Flops()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ctx.DGEMM(NN, sh.M, sh.N, sh.K, 1, A.Data, A.Stride, B.Data, B.Stride, 0, C.Data, C.Stride); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaselineComparison measures this repo's runnable baseline
// implementations on the same small kernel, wall-clock.
func BenchmarkBaselineComparison(b *testing.B) {
	rng := mat.NewRNG(3)
	m := 32
	A := mat.RandomF32(m, m, rng)
	B := mat.RandomF32(m, m, rng)
	C := mat.NewF32(m, m)
	for _, lib := range baselines.All() {
		lib := lib
		b.Run(lib.String(), func(b *testing.B) {
			b.SetBytes(int64(2 * m * m * m))
			for i := 0; i < b.N; i++ {
				if err := baselines.SGEMM(lib, nil, 1, core.NN, m, m, m, 1, A.Data, A.Stride, B.Data, B.Stride, 0, C.Data, C.Stride); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("LibShalom", func(b *testing.B) {
		ctx := New(WithThreads(1))
		b.SetBytes(int64(2 * m * m * m))
		for i := 0; i < b.N; i++ {
			if err := ctx.SGEMM(NN, m, m, m, 1, A.Data, A.Stride, B.Data, B.Stride, 0, C.Data, C.Stride); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- one benchmark per paper table/figure (model-driven reproductions) ---

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e := bench.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		e.Run(io.Discard)
	}
}

func BenchmarkTable1Platforms(b *testing.B)          { benchExperiment(b, "table1") }
func BenchmarkFig2aMotivationSmall(b *testing.B)     { benchExperiment(b, "fig2a") }
func BenchmarkFig2bMotivationIrregular(b *testing.B) { benchExperiment(b, "fig2b") }
func BenchmarkFig6EdgeSchedules(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7SmallGEMMWarm(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8SmallGEMMCold(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9IrregularPhytium(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10IrregularKP920TX2(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11Scalability(b *testing.B)         { benchExperiment(b, "fig11") }
func BenchmarkFig12L2Misses(b *testing.B)            { benchExperiment(b, "fig12") }
func BenchmarkFig13Breakdown(b *testing.B)           { benchExperiment(b, "fig13") }
func BenchmarkFig14CP2K(b *testing.B)                { benchExperiment(b, "fig14") }
func BenchmarkFig15VGG(b *testing.B)                 { benchExperiment(b, "fig15") }

// BenchmarkMicroKernels measures the wall-clock throughput of the Go
// compute micro-kernels themselves: the specialized 7×12 path against the
// generic fallback on the same tile, and the FP64 7×6 kernel.
func BenchmarkMicroKernels(b *testing.B) {
	rng := mat.NewRNG(4)
	kc := 256
	a32 := make([]float32, 7*kc)
	b32 := make([]float32, kc*12)
	c32 := make([]float32, 7*12)
	for i := range a32 {
		a32[i] = rng.Float32()
	}
	for i := range b32 {
		b32[i] = rng.Float32()
	}
	flops := int64(2 * 7 * 12 * kc)
	b.Run("sgemm7x12-specialized", func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			kernels.SGEMMMicro(7, 12, kc, 1, a32, kc, b32, 12, 0, c32, 12)
		}
	})
	b.Run("sgemm7x11-generic", func(b *testing.B) {
		// One column narrower forces the generic path on comparable work.
		b.SetBytes(int64(2 * 7 * 11 * kc))
		for i := 0; i < b.N; i++ {
			kernels.SGEMMMicro(7, 11, kc, 1, a32, kc, b32, 12, 0, c32, 12)
		}
	})
	a64 := make([]float64, 7*kc)
	b64 := make([]float64, kc*6)
	c64 := make([]float64, 7*6)
	for i := range a64 {
		a64[i] = rng.Float64()
	}
	for i := range b64 {
		b64[i] = rng.Float64()
	}
	b.Run("dgemm7x6-specialized", func(b *testing.B) {
		b.SetBytes(int64(2 * 7 * 6 * kc))
		for i := 0; i < b.N; i++ {
			kernels.DGEMMMicro(7, 6, kc, 1, a64, kc, b64, 6, 0, c64, 6)
		}
	})
}
