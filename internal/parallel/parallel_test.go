package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"libshalom/internal/analytic"
)

// TestBlocksCoverExactly property-tests that the partition tiles C exactly:
// every cell covered once, no overlap, no spill.
func TestBlocksCoverExactly(t *testing.T) {
	f := func(mRaw, nRaw, tRaw, seed uint16) bool {
		m := int(mRaw%300) + 1
		n := int(nRaw%300) + 1
		threads := []int{1, 2, 4, 8, 16, 32, 64}[tRaw%7]
		part := analytic.PartitionFor(m, n, threads)
		blocks := Blocks(m, n, part, 7, 12)
		cover := make([]int, m*n)
		for _, b := range blocks {
			if b.M <= 0 || b.N <= 0 {
				return false
			}
			for i := b.I0; i < b.I0+b.M; i++ {
				for j := b.J0; j < b.J0+b.N; j++ {
					if i >= m || j >= n {
						return false
					}
					cover[i*n+j]++
				}
			}
		}
		for _, c := range cover {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BlockCount is the size of the partition the driver plans with, so it
// must agree with Blocks for every shape, width and tile.
func TestBlockCountMatchesBlocks(t *testing.T) {
	f := func(mRaw, nRaw, tRaw, tile uint16) bool {
		m, n := int(mRaw%300), int(nRaw%300)
		threads := []int{1, 2, 3, 4, 6, 8, 16, 64}[tRaw%8]
		mr, nr := []int{7, 7, 4, 1}[tile%4], []int{12, 6, 8, 1}[tile%4]
		part := analytic.PartitionFor(m, n, threads)
		return BlockCount(m, n, part, mr, nr) == len(Blocks(m, n, part, mr, nr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBlocksAlignment checks the §6 property: interior block boundaries fall
// on micro-tile multiples, so only the final row/column of the grid can
// contain partial tiles.
func TestBlocksAlignment(t *testing.T) {
	m, n, mr, nr := 1000, 5000, 7, 12
	part := analytic.PartitionFor(m, n, 64)
	blocks := Blocks(m, n, part, mr, nr)
	for _, b := range blocks {
		if b.I0%mr != 0 || b.J0%nr != 0 {
			t.Fatalf("block origin (%d,%d) not tile-aligned", b.I0, b.J0)
		}
		if b.I0+b.M < m && b.M%mr != 0 {
			t.Fatalf("interior block height %d not multiple of mr", b.M)
		}
		if b.J0+b.N < n && b.N%nr != 0 {
			t.Fatalf("interior block width %d not multiple of nr", b.N)
		}
	}
}

func TestBlocksSmallMatrixFewerThreads(t *testing.T) {
	// M=7 rows = 1 row-tile: a 64-thread partition must not produce empty
	// or out-of-range blocks.
	part := analytic.PartitionFor(7, 10000, 64)
	blocks := Blocks(7, 10000, part, 7, 12)
	if len(blocks) == 0 {
		t.Fatal("no blocks produced")
	}
	for _, b := range blocks {
		if b.M != 7 {
			t.Fatalf("single row-tile split: %+v", b)
		}
	}
}

func TestBlocksDegenerate(t *testing.T) {
	if Blocks(0, 10, analytic.Partition{TM: 1, TN: 1}, 7, 12) != nil {
		t.Fatal("zero-row C must produce no blocks")
	}
	if Blocks(10, 0, analytic.Partition{TM: 1, TN: 1}, 7, 12) != nil {
		t.Fatal("zero-col C must produce no blocks")
	}
}

func TestSplitAlignedLoadBalance(t *testing.T) {
	spans := splitAligned(1001, 8, 7) // 143 tiles + 1 remainder row
	total := 0
	for _, s := range spans {
		total += s.len
	}
	if total != 1001 {
		t.Fatalf("split covers %d of 1001", total)
	}
	// Max/min chunk sizes must differ by at most one tile (7 rows) plus
	// the final remainder.
	maxLen, minLen := 0, 1<<30
	for _, s := range spans {
		if s.len > maxLen {
			maxLen = s.len
		}
		if s.len < minLen {
			minLen = s.len
		}
	}
	if maxLen-minLen > 7+6 {
		t.Fatalf("imbalance: max %d min %d", maxLen, minLen)
	}
}

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var count atomic.Int64
	tasks := make([]func(int), 100)
	for i := range tasks {
		tasks[i] = func(int) { count.Add(1) }
	}
	p.RunWorkerCfg(RunConfig{}, tasks)
	if count.Load() != 100 {
		t.Fatalf("ran %d of 100 tasks", count.Load())
	}
	// The pool must be reusable.
	p.RunWorkerCfg(RunConfig{}, tasks[:10])
	if count.Load() != 110 {
		t.Fatal("pool not reusable")
	}
}

func TestPoolParallelism(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var concurrent, peak atomic.Int64
	gate := make(chan struct{})
	tasks := make([]func(int), 8)
	for i := range tasks {
		tasks[i] = func(int) {
			c := concurrent.Add(1)
			for {
				old := peak.Load()
				if c <= old || peak.CompareAndSwap(old, c) {
					break
				}
			}
			<-gate
			concurrent.Add(-1)
		}
	}
	done := make(chan struct{})
	go func() { p.RunWorkerCfg(RunConfig{}, tasks); close(done) }()
	// Wait until several tasks are genuinely parked on the gate before
	// releasing any, so observed concurrency is deterministic.
	for concurrent.Load() < 4 {
	}
	for i := 0; i < 8; i++ {
		gate <- struct{}{}
	}
	<-done
	if peak.Load() < 4 {
		t.Fatalf("peak concurrency %d, want ≥ 4", peak.Load())
	}
}

func TestPoolEmptyRun(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.RunWorkerCfg(RunConfig{}, nil) // must not deadlock
}

func TestPoolMinimumWorkers(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatal("worker floor not applied")
	}
	var ran atomic.Bool
	p.RunWorkerCfg(RunConfig{}, []func(int){func(int) { ran.Store(true) }})
	if !ran.Load() {
		t.Fatal("task did not run")
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // second close must not panic
}

// TestConcurrentRuns: a shared pool must serve simultaneous Run calls with
// each call joining exactly its own tasks.
func TestConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for r := 0; r < 16; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var count atomic.Int64
			tasks := make([]func(int), 25)
			for i := range tasks {
				tasks[i] = func(int) { count.Add(1) }
			}
			p.RunWorkerCfg(RunConfig{}, tasks)
			if count.Load() != 25 {
				t.Errorf("Run joined with %d of 25 tasks done", count.Load())
			}
		}()
	}
	wg.Wait()
}

// TestRunEnforcesWidth: a run never has more than its width of units in
// flight, however many workers the pool has, counted inside units that
// sleep so that any excess would overlap.
func TestRunEnforcesWidth(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var inFlight, peak atomic.Int64
	err := p.Run(RunConfig{}, 2, 16, func(int, int) error {
		c := inFlight.Add(1)
		for old := peak.Load(); c > old && !peak.CompareAndSwap(old, c); old = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 2 {
		t.Fatalf("%d units in flight in a run of width 2", got)
	}
}

// TestConcurrentRunsInterleave: runs share the workers in the order they
// hand out their units, so a run started while another run's first unit
// holds the only worker does not wait for all of that run. Every unit holds
// the worker until released, so the order is the pool's. A run's hand-out
// cannot be observed from outside the pool, so the second run gets 10 ms
// to reach it before the first release.
func TestConcurrentRunsInterleave(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	started := make(chan string)
	release := make(chan struct{})
	unit := func(name string) func(int) {
		return func(int) {
			started <- name
			<-release
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.RunWorkerCfg(RunConfig{}, []func(int){unit("a0"), unit("a1"), unit("a2"), unit("a3")})
	}()
	order := []string{<-started}
	go func() {
		defer wg.Done()
		p.RunWorkerCfg(RunConfig{}, []func(int){unit("b0")})
	}()
	time.Sleep(10 * time.Millisecond)
	for range 4 {
		release <- struct{}{}
		order = append(order, <-started)
	}
	release <- struct{}{}
	wg.Wait()
	if order[0] != "a0" || order[4] == "b0" {
		t.Fatalf("unit order %v: the one-unit run waited for the whole four-unit run", order)
	}
}
