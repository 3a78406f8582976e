package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"libshalom/internal/guard"
)

// The watchdog converts a task exceeding its budget into a typed
// *guard.StuckWorkerError and releases the join early — well before the
// stuck task drains.
func TestWatchdogConvertsStuckTask(t *testing.T) {
	p := NewPool(2)
	defer func() {
		time.Sleep(250 * time.Millisecond) // let the straggler drain before Close
		p.Close()
	}()
	const budget = 20 * time.Millisecond
	var fastRan atomic.Int32
	tasks := []func(int){
		func(int) { time.Sleep(200 * time.Millisecond) }, // stuck
		func(int) { fastRan.Add(1) },
	}
	start := time.Now()
	err := p.RunWorkerCfg(RunConfig{TaskBudget: budget}, tasks)
	elapsed := time.Since(start)
	var swe *guard.StuckWorkerError
	if !errors.As(err, &swe) {
		t.Fatalf("err = %v (%T), want *guard.StuckWorkerError", err, err)
	}
	if swe.Task != 0 {
		t.Fatalf("stuck task = %d, want 0", swe.Task)
	}
	if swe.Elapsed < budget {
		t.Fatalf("reported elapsed %v below the %v budget", swe.Elapsed, budget)
	}
	if !swe.Timeout() {
		t.Fatal("Timeout() = false")
	}
	if elapsed >= 150*time.Millisecond {
		t.Fatalf("join waited %v — the watchdog did not return early", elapsed)
	}
}

// A watchdog early return is reported as stuck even when a cancelled
// context failed the run first: the straggler is still running, so the
// caller must not take the context's error as a completed join. Task 1
// holds the second worker until the context is done, so the dispatcher
// records the cancellation before the watchdog fires on task 0.
func TestWatchdogAfterCancelReportsStuck(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	defer close(release)
	tasks := []func(int){
		func(int) { cancel(); <-release },
		func(int) { <-ctx.Done() },
		func(int) {},
		func(int) {},
	}
	err := p.RunWorkerCfg(RunConfig{Ctx: ctx, TaskBudget: 20 * time.Millisecond}, tasks)
	var swe *guard.StuckWorkerError
	if !errors.As(err, &swe) || swe.Task != 0 {
		t.Fatalf("err = %v (%T), want *guard.StuckWorkerError for task 0", err, err)
	}
}

// Closing a pool right after a watchdog early return, while its hand-out is
// still waiting to pass on the next task, is safe (run under -race): the
// hand-out stops at the closed pool, and a task handed over late sees the
// failed run and does not run.
func TestCloseAfterWatchdogReturn(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	var ran atomic.Int32
	tasks := []func(int){
		func(int) { <-release },
		func(int) { ran.Add(1) },
	}
	err := p.RunWorkerCfg(RunConfig{TaskBudget: 10 * time.Millisecond}, tasks)
	p.Close()
	close(release)
	var swe *guard.StuckWorkerError
	if !errors.As(err, &swe) {
		t.Fatalf("err = %v (%T), want *guard.StuckWorkerError", err, err)
	}
	if ran.Load() != 0 {
		t.Fatal("a task ran after its pool closed")
	}
}

// Without a budget, RunWorkerCfg behaves exactly like RunWorker: slow tasks
// are not failures.
func TestNoBudgetMeansNoWatchdog(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var ran atomic.Int32
	tasks := []func(int){
		func(int) { time.Sleep(20 * time.Millisecond); ran.Add(1) },
		func(int) { ran.Add(1) },
	}
	if err := p.RunWorkerCfg(RunConfig{}, tasks); err != nil {
		t.Fatalf("unbudgeted run failed: %v", err)
	}
	if ran.Load() != 2 {
		t.Fatalf("ran %d tasks, want 2", ran.Load())
	}
}

// Tasks comfortably inside their budget never trip the watchdog.
func TestWatchdogQuietUnderBudget(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var ran atomic.Int32
	tasks := make([]func(int), 32)
	for i := range tasks {
		tasks[i] = func(int) {
			time.Sleep(time.Millisecond)
			ran.Add(1)
		}
	}
	if err := p.RunWorkerCfg(RunConfig{TaskBudget: 2 * time.Second}, tasks); err != nil {
		t.Fatalf("budgeted run failed: %v", err)
	}
	if ran.Load() != 32 {
		t.Fatalf("ran %d tasks, want 32", ran.Load())
	}
}

// A cancelled context stops dispatching, fails the run with the context's
// error, and still performs the full join: every started task finishes
// before RunWorkerCfg returns, so the caller may safely read task outputs.
func TestContextCancelStopsDispatchAfterFullJoin(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var started, finished atomic.Int32
	tasks := make([]func(int), 64)
	for i := range tasks {
		tasks[i] = func(int) {
			started.Add(1)
			time.Sleep(2 * time.Millisecond)
			finished.Add(1)
		}
	}
	time.AfterFunc(5*time.Millisecond, cancel)
	err := p.RunWorkerCfg(RunConfig{Ctx: ctx}, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started.Load() == int32(len(tasks)) {
		t.Fatal("cancellation did not stop dispatch")
	}
	if started.Load() != finished.Load() {
		t.Fatalf("join returned with %d started but %d finished", started.Load(), finished.Load())
	}
}

// An already-expired context fails fast without dispatching anything.
func TestExpiredContextFailsFast(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := p.RunWorkerCfg(RunConfig{Ctx: ctx}, []func(int){func(int) { ran.Add(1) }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("task dispatched on an expired context")
	}
}
