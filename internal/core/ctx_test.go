package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"libshalom/internal/mat"
	"libshalom/internal/telemetry"
)

// pollLimitCtx is a deterministic cancellation source: Err returns nil for
// the first polls calls and context.Canceled afterwards. The batch runtime
// polls ctx exactly once before each entry on the serial path, so arming
// polls = p cancels the batch after exactly p completed entries.
type pollLimitCtx struct {
	polls int
	seen  int
}

func (c *pollLimitCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *pollLimitCtx) Done() <-chan struct{}       { return nil }
func (c *pollLimitCtx) Value(any) any               { return nil }
func (c *pollLimitCtx) Err() error {
	c.seen++
	if c.seen > c.polls {
		return context.Canceled
	}
	return nil
}

// sBatchFor builds entries of varied shapes of about base³, with beta 0.5
// so every entry that runs changes its C.
func sBatchFor(t *testing.T, entries, base int, seed uint64) ([]BatchEntry[float32], []*mat.F32) {
	t.Helper()
	rng := mat.NewRNG(seed)
	batch := make([]BatchEntry[float32], entries)
	var cs []*mat.F32
	for i := range batch {
		m, n, k := base+i%5, base-2+i%7, base+2+i%3
		a := mat.RandomF32(m, k, rng)
		b := mat.RandomF32(k, n, rng)
		c := mat.RandomF32(m, n, rng)
		cs = append(cs, c)
		batch[i] = BatchEntry[float32]{M: m, N: n, K: k, Alpha: 1.5,
			A: a.Data, LDA: a.Stride, B: b.Data, LDB: b.Stride,
			Beta: 0.5, C: c.Data, LDC: c.Stride}
	}
	return batch, cs
}

// A batch cancelled mid-way must stop before the remaining entries and
// leave every completed entry's result bitwise identical to the
// uncancelled run's.
func TestBatchCtxCancelMidwayBitwiseIdentical(t *testing.T) {
	const entries = 10
	const stopAfter = 4

	// Uncancelled run: the reference results.
	full, fullC := sBatchFor(t, entries, 9, 42)
	if err := SGEMMBatch(testDriver(t, Config{Threads: 1}), NN, full); err != nil {
		t.Fatalf("uncancelled batch: %v", err)
	}

	// Identical inputs, cancelled after stopAfter entries.
	cancelled, cancelledC := sBatchFor(t, entries, 9, 42)
	before := make([]*mat.F32, entries)
	for i, c := range cancelledC {
		before[i] = c.Clone()
	}
	ctx := &pollLimitCtx{polls: stopAfter}
	err := SGEMMBatchCtx(ctx, testDriver(t, Config{Threads: 1}), NN, cancelled)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled through the chain", err)
	}
	var bce *BatchCancelError
	if !errors.As(err, &bce) {
		t.Fatalf("err = %T, want *BatchCancelError", err)
	}
	if bce.Completed != stopAfter || bce.Total != entries {
		t.Fatalf("accounting = %d/%d, want %d/%d", bce.Completed, bce.Total, stopAfter, entries)
	}
	for i := 0; i < entries; i++ {
		got, want := cancelledC[i], fullC[i]
		if i < stopAfter {
			for j := range got.Data {
				if got.Data[j] != want.Data[j] { // bitwise
					t.Fatalf("completed entry %d differs from uncancelled run at %d: %v vs %v",
						i, j, got.Data[j], want.Data[j])
				}
			}
			continue
		}
		for j := range got.Data {
			if got.Data[j] != before[i].Data[j] {
				t.Fatalf("entry %d ran after cancellation (element %d changed)", i, j)
			}
		}
	}
}

// A context cancelled before the call must prevent every entry from
// running, on both the serial and the pooled path (the entries are about
// 32³ so that the batch's work clears the fork floor at 4 threads).
func TestBatchCtxPreCancelled(t *testing.T) {
	for _, threads := range []int{1, 4} {
		batch, cs := sBatchFor(t, 8, 32, 7)
		before := make([]*mat.F32, len(cs))
		for i, c := range cs {
			before[i] = c.Clone()
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := SGEMMBatchCtx(ctx, testDriver(t, Config{Threads: threads}), NN, batch)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("threads=%d: err = %v, want context.Canceled", threads, err)
		}
		var bce *BatchCancelError
		if !errors.As(err, &bce) || bce.Completed != 0 {
			t.Fatalf("threads=%d: accounting = %+v, want 0 completed", threads, err)
		}
		for i, c := range cs {
			for j := range c.Data {
				if c.Data[j] != before[i].Data[j] {
					t.Fatalf("threads=%d: entry %d ran under a pre-cancelled ctx", threads, i)
				}
			}
		}
	}
}

// On the pooled path the completion accounting must agree exactly with the
// set of entries whose C changed: entries run whole or not at all. The
// entries are about 32³, so the batch's work clears the fork floor and it
// runs on the pool, which the recorder proves.
func TestBatchCtxPooledAccountingMatchesWrites(t *testing.T) {
	const entries = 64
	batch, cs := sBatchFor(t, entries, 32, 99)
	before := make([]*mat.F32, entries)
	for i, c := range cs {
		before[i] = c.Clone()
	}
	tel := telemetry.New(telemetry.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel mid-run, once the pool holds the batch's tasks; the
		// bound keeps a batch that never reaches the pool from hanging.
		for start := time.Now(); tel.Snapshot().Pool.TasksQueued == 0 && time.Since(start) < time.Second; {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	err := SGEMMBatchCtx(ctx, testDriver(t, Config{Threads: 4, Tel: tel}), NN, batch)
	if q := tel.Snapshot().Pool.TasksQueued; q == 0 {
		t.Fatal("batch never ran on the pool")
	}
	touched := 0
	for i, c := range cs {
		for j := range c.Data {
			if c.Data[j] != before[i].Data[j] {
				touched++
				break
			}
		}
	}
	if err == nil {
		// The batch won the race; every entry must have run. (Entries with
		// beta=0.5 and random operands always change C.)
		if touched != entries {
			t.Fatalf("nil error but only %d/%d entries ran", touched, entries)
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var bce *BatchCancelError
	if !errors.As(err, &bce) {
		t.Fatalf("err = %T, want *BatchCancelError", err)
	}
	if bce.Completed != touched {
		t.Fatalf("accounting says %d completed, but %d entries were written", bce.Completed, touched)
	}
}

// Batch validation rejects aliased C storage when CheckAlias is set, and
// accepts adjacent-but-disjoint views of one backing array.
func TestBatchAliasCheck(t *testing.T) {
	rng := mat.NewRNG(5)
	a := mat.RandomF32(4, 4, rng)
	backing := make([]float32, 64)
	mk := func(c []float32) BatchEntry[float32] {
		return BatchEntry[float32]{M: 4, N: 4, K: 4, Alpha: 1,
			A: a.Data, LDA: 4, B: a.Data, LDB: 4, Beta: 0, C: c, LDC: 4}
	}
	disjoint := []BatchEntry[float32]{mk(backing[0:16]), mk(backing[16:32])}
	if err := SGEMMBatch(testDriver(t, Config{Threads: 1, CheckAlias: true}), NN, disjoint); err != nil {
		t.Fatalf("adjacent-but-disjoint views rejected: %v", err)
	}
	overlap := []BatchEntry[float32]{mk(backing[0:16]), mk(backing[8:24])}
	if err := SGEMMBatch(testDriver(t, Config{Threads: 1, CheckAlias: true}), NN, overlap); !errors.Is(err, ErrAliasedBatch) {
		t.Fatalf("overlapping C: err = %v, want ErrAliasedBatch", err)
	}
	// Without the option the (racy) call is the caller's responsibility;
	// serial execution stays well-defined, so just assert it is accepted.
	if err := SGEMMBatch(testDriver(t, Config{Threads: 1}), NN, overlap); err != nil {
		t.Fatalf("unchecked overlap rejected: %v", err)
	}
}
