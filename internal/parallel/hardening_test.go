package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
)

// Regression: Run on a closed pool used to panic (parallel.go:121 of the
// seed); the hardened pool reports ErrClosed instead.
func TestRunOnClosedPoolReturnsError(t *testing.T) {
	p := NewPool(2)
	p.Close()
	var ran atomic.Bool
	err := p.RunWorkerCfg(RunConfig{}, []func(int){func(int) { ran.Store(true) }})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Run on closed pool: err = %v, want ErrClosed", err)
	}
	if ran.Load() {
		t.Fatal("task ran on a closed pool")
	}
}

func TestDoubleCloseStaysNoop(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
	if err := p.RunWorkerCfg(RunConfig{}, []func(int){func(int) {}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after double close: err = %v, want ErrClosed", err)
	}
}

// A panicking task must not kill its worker or the process: Run returns a
// typed *PanicError and the pool remains fully usable.
func TestTaskPanicIsolated(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	err := p.RunWorkerCfg(RunConfig{}, []func(int){
		func(int) {},
		func(int) { panic("kernel exploded") },
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Task != 1 {
		t.Fatalf("PanicError.Task = %d, want 1", pe.Task)
	}
	if pe.Value != "kernel exploded" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError.Stack empty")
	}
	// Pool stays usable after the panic.
	var count atomic.Int64
	if err := p.RunWorkerCfg(RunConfig{}, []func(int){func(int) { count.Add(1) }, func(int) { count.Add(1) }}); err != nil {
		t.Fatalf("Run after panic: %v", err)
	}
	if count.Load() != 2 {
		t.Fatalf("pool ran %d of 2 tasks after a panic", count.Load())
	}
}

// After the first panic, tasks of the same Run call that have not started
// are cancelled. With one worker the schedule is deterministic: the panic
// in task 0 lands before tasks 1..n are picked up.
func TestRunCancelsRemainingAfterPanic(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var ran atomic.Int64
	tasks := []func(int){
		func(int) { panic("first") },
		func(int) { ran.Add(1) },
		func(int) { ran.Add(1) },
		func(int) { ran.Add(1) },
	}
	err := p.RunWorkerCfg(RunConfig{}, tasks)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Task != 0 {
		t.Fatalf("err = %v, want *PanicError for task 0", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran after the panic; want 0 (cancelled)", ran.Load())
	}
}

// A unit's error fails its run as a panic does: it is what Run returns, and
// on one worker the units after it are skipped.
func TestRunErrorSkipsRemaining(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	failure := errors.New("unit failed")
	var ran atomic.Int64
	err := p.Run(RunConfig{}, 4, 4, func(i, _ int) error {
		if i == 0 {
			return failure
		}
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, failure) {
		t.Fatalf("err = %v, want the unit's error", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d units ran after the failure; want 0 (skipped)", ran.Load())
	}
}

// Concurrent Run calls stay independent: a panic in one call must not
// cancel or fail the other.
func TestPanicDoesNotLeakAcrossRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	done := make(chan error, 1)
	var count atomic.Int64
	go func() {
		tasks := make([]func(int), 50)
		for i := range tasks {
			tasks[i] = func(int) { count.Add(1) }
		}
		done <- p.RunWorkerCfg(RunConfig{}, tasks)
	}()
	_ = p.RunWorkerCfg(RunConfig{}, []func(int){func(int) { panic("boom") }})
	if err := <-done; err != nil {
		t.Fatalf("healthy Run failed: %v", err)
	}
	if count.Load() != 50 {
		t.Fatalf("healthy Run completed %d of 50 tasks", count.Load())
	}
}
