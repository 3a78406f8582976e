package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"libshalom/internal/faults"
	"libshalom/internal/guard"
	"libshalom/internal/mat"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
)

// The single-call and batch drivers share one dispatch ladder: from the
// same breaker state, a problem run through SGEMM and the same problem run
// as a one-entry SGEMMBatch take the same route — the same telemetry row
// and heal events, the same breaker state afterwards, bitwise-equal C.
func TestSingleAndBatchShareTheLadder(t *testing.T) {
	plat := platform.KP920()
	const m, n, k = 24, 24, 24
	class := uint8(telemetry.ClassifyShape(m, n, k))
	rng := mat.NewRNG(11)
	a := mat.RandomF32(m, k, rng)
	b := mat.RandomF32(k, n, rng)
	c0 := mat.RandomF32(m, n, rng)
	want := c0.Clone()
	mat.RefGEMMF32(mat.NoTrans, mat.NoTrans, 1, a, b, 0.5, want)

	prev := guard.Configure(guard.Config{Cooldown: time.Hour, CanaryStride: 1})
	t.Cleanup(func() {
		guard.Configure(prev)
		guard.Reset()
		faults.Reset()
	})

	// Each setup puts the registry into a route's starting state and
	// returns the breaker path the route runs on.
	family := func(arm func()) func() string {
		return func() string {
			arm()
			return guard.PathF32
		}
	}
	tuned := func(probing bool) func() string {
		return func() string {
			path := guard.MintOverridePath(4, "parity")
			guard.SetOverride(4, class, guard.TileOverride{MR: 5, NR: 8, KC: 16, Kernel: "parity-5x8-kc16", Path: path})
			if probing {
				guard.BeginProbation(plat.Name, path)
			}
			return path
		}
	}
	routes := []struct {
		name  string
		setup func() string
		row   string      // kernel/outcome
		state guard.State // of the route's breaker afterwards
	}{
		{"healthy", family(func() {}), "fast/ok", guard.StateHealthy},
		{"open-reference", family(func() {
			guard.Trip(plat.Name, guard.PathF32, guard.ReasonPanic, "parity", "", 0)
		}), "ref/ok", guard.StateOpen},
		{"probing-canary-agrees", family(func() {
			guard.BeginProbation(plat.Name, guard.PathF32)
		}), "fast/ok", guard.StateProbing},
		{"probing-canary-mismatch", family(func() {
			guard.BeginProbation(plat.Name, guard.PathF32)
			faults.Arm(faults.CanaryMismatch, 1)
		}), "ref/degraded", guard.StateOpen},
		{"tuned-probing", tuned(true), "tuned/ok", guard.StateProbing},
		{"tuned-healthy", tuned(false), "tuned/ok", guard.StateHealthy},
	}
	type result struct {
		row, heal string
		state     guard.State
		c         []float32
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			run := func(batch bool) result {
				guard.Reset()
				faults.Reset()
				path := rt.setup()
				tel := telemetry.New(telemetry.Options{})
				d := testDriver(t, Config{Plat: plat, Threads: 1, Tel: tel})
				c := append([]float32(nil), c0.Data...)
				var err error
				if batch {
					err = SGEMMBatch(d, NN, []BatchEntry[float32]{{
						M: m, N: n, K: k, Alpha: 1, A: a.Data, LDA: a.Stride,
						B: b.Data, LDB: b.Stride, Beta: 0.5, C: c, LDC: c0.Stride,
					}})
				} else {
					err = SGEMM(d, NN, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 0.5, c, c0.Stride)
				}
				if err != nil {
					t.Fatalf("batch=%v: %v", batch, err)
				}
				snap := tel.Snapshot()
				if len(snap.Calls) != 1 || snap.Calls[0].Count != 1 {
					t.Fatalf("batch=%v: telemetry rows %+v, want one call", batch, snap.Calls)
				}
				got := &mat.F32{Rows: m, Cols: n, Stride: c0.Stride, Data: c}
				if !got.Equal(want, 1e-3) {
					t.Fatalf("batch=%v: C wrong (max diff %g)", batch, got.MaxDiff(want))
				}
				return result{
					row:   snap.Calls[0].Kernel + "/" + snap.Calls[0].Outcome,
					heal:  fmt.Sprint(snap.Heal, snap.Degradations, snap.BreakersOpen, snap.BreakersProbing),
					state: guard.StateOf(plat.Name, path),
					c:     c,
				}
			}
			single, batch := run(false), run(true)
			if single.row != rt.row || batch.row != rt.row {
				t.Fatalf("telemetry row: single %s, batch %s, want %s", single.row, batch.row, rt.row)
			}
			if single.heal != batch.heal {
				t.Fatalf("heal events differ:\nsingle %s\nbatch  %s", single.heal, batch.heal)
			}
			if single.state != rt.state || batch.state != rt.state {
				t.Fatalf("breaker state: single %s, batch %s, want %s", single.state, batch.state, rt.state)
			}
			for i := range single.c {
				if math.Float32bits(single.c[i]) != math.Float32bits(batch.c[i]) {
					t.Fatalf("C[%d]: single %v, batch %v — not bitwise equal", i, single.c[i], batch.c[i])
				}
			}
		})
	}
}
