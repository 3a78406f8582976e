package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; v is sorted in place. NaN for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	f := pos - float64(lo)
	return v[lo]*(1-f) + v[lo+1]*f
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// bandQuantile estimates the q-quantile of v as the mean of the samples
// ranked within q±half, the band widened to hold at least ten samples. On
// a mix of shapes the latency distribution is a set of clusters, one per
// shape; a plain quantile that falls between two clusters jumps from one
// to the other with a handful of samples, while the band mean moves
// smoothly. v is sorted in place.
func bandQuantile(v []float64, q, half float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	half = max(half, 5/float64(len(v)))
	lo := int(math.Floor((q - half) * float64(len(v))))
	hi := int(math.Ceil((q + half) * float64(len(v))))
	lo, hi = max(lo, 0), min(max(hi, lo+1), len(v))
	return mean(v[lo:hi])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// timePerCall measures fn's cost per call within budget: it grows the batch
// size until one batch takes at least 200µs, then times batches until the
// budget is spent (at least five), and returns the median per-call time in
// nanoseconds. fn(n) must perform n calls.
func timePerCall(budget time.Duration, fn func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= 200*time.Microsecond || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var per []float64
	stop := time.Now().Add(budget)
	for len(per) < 5 || time.Now().Before(stop) {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// memCounts is a whole-process allocation and GC reading.
type memCounts struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        [256]uint64 // the runtime's ring of recent GC pauses
}

func readMem() memCounts {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounts{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseNs}
}

// gcPauseQuantile returns the q-quantile in microseconds of the GC pauses
// between two readings (the latest 256 when there were more), or 0 when
// there were none.
func gcPauseQuantile(before, after memCounts, q float64) float64 {
	var us []float64
	for n := after.gcs; n > before.gcs && after.gcs-n < 256; n-- {
		us = append(us, float64(after.pauseNs[(n+255)%256])/1e3)
	}
	if len(us) == 0 {
		return 0
	}
	return quantile(us, q)
}
