package telemetry

import (
	"math"
	"sync/atomic"
)

// Attribution sketch: a finer-grained achieved-GFLOPS histogram per
// (precision, mode, shape class, kernel) key, fed only by OutcomeOK calls.
// The coarse gfHist (one bucket per octave) is good enough for dashboards
// but too blunt for the attribution engine's windowed p50/p99: a 2× bucket
// width swallows the 25–40% efficiency shortfalls the drift detector is
// supposed to see. This sketch keeps 8 sub-buckets per octave (≤ 12.5%
// relative width) over 16 octaves anchored at 2⁻⁶ GFLOPS, which covers
// everything from a scalar reference kernel on a tiny shape to multi-chip
// peak. The arrays live on the Recorder so the hot-path update stays a
// static call chain — an interface-valued sink would defeat the hotpath
// analyzer's transitive proof (and cost an indirect call per GEMM).
//
// internal/attrib polls the cumulative cells via ReadAttrib and differences
// consecutive reads into rolling windows; nothing here ever resets.

// Attribution key space: the call-key space without the outcome axis.
const NumAttribKeys = int(numPrec) * numMode * int(numShapeClasses) * int(numKernel)

// AttribKeyIndex returns the dense attribution index of a key.
func AttribKeyIndex(prec, mode, class, kernel uint8) int {
	return ((int(prec)*numMode+int(mode))*int(numShapeClasses)+int(class))*int(numKernel) + int(kernel)
}

// AttribKeyAt unpacks a dense attribution index.
func AttribKeyAt(idx int) (prec, mode, class, kernel uint8) {
	kernel = uint8(idx % int(numKernel))
	idx /= int(numKernel)
	class = uint8(idx % int(numShapeClasses))
	idx /= int(numShapeClasses)
	mode = uint8(idx % numMode)
	idx /= numMode
	prec = uint8(idx)
	return
}

// AttribKeyLabels renders an attribution index's label values.
func AttribKeyLabels(idx int) (prec, mode, class, kernel string) {
	p, m, c, k := AttribKeyAt(idx)
	return precNames[p], modeNames[m], ShapeClass(c).String(), kernelNames[k]
}

// Sketch geometry: value v (GFLOPS) maps to fixed point u = v·2⁶; octave
// h = ⌊log₂ u⌋ and the next 3 bits select one of 8 sub-buckets, so bucket
// (h, s) covers [(8+s)·2^(h-9), (9+s)·2^(h-9)) GFLOPS.
const (
	attribOctaves    = 16
	attribSubBuckets = 8
	// NumAttribBuckets is the sketch resolution per attribution key.
	NumAttribBuckets = attribOctaves * attribSubBuckets
)

// attribBucket maps an achieved rate in GFLOPS to its sketch bucket. Pure
// integer arithmetic — it runs inside CallDone on the hot path.
func attribBucket(gf float64) int {
	v := uint64(gf * 64)
	if v == 0 {
		return 0
	}
	// Octave: index of the leading bit (bucketLog2 counts bits, so -1).
	h := bucketLog2(v, 64) - 1
	var sub uint64
	if h >= 3 {
		sub = (v >> uint(h-3)) & 7
	} else {
		sub = (v << uint(3-h)) & 7
	}
	idx := h*attribSubBuckets + int(sub)
	if idx >= NumAttribBuckets {
		idx = NumAttribBuckets - 1
	}
	return idx
}

// AttribBucketValue returns the representative (midpoint) GFLOPS value of a
// sketch bucket, the value quantile estimates report.
func AttribBucketValue(idx int) float64 {
	h := idx / attribSubBuckets
	sub := idx % attribSubBuckets
	return math.Ldexp(8.5+float64(sub), h-9)
}

// AttribQuantile estimates the q-quantile (q in [0,1]) of a sketch
// histogram. Zero when the histogram is empty.
func AttribQuantile(hist *[NumAttribBuckets]uint64, q float64) float64 {
	var total uint64
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for b, n := range hist {
		cum += n
		if cum > rank {
			return AttribBucketValue(b)
		}
	}
	return AttribBucketValue(NumAttribBuckets - 1)
}

// attribStats is the Recorder's attribution section: the cumulative sketch
// plus the window counter the engine feeds back.
type attribStats struct {
	calls *CounterVec
	durNs [NumAttribKeys]atomic.Uint64
	flops [NumAttribKeys]atomic.Uint64
	hist  [NumAttribKeys][NumAttribBuckets]atomic.Uint64

	windows *Counter // completed attribution windows
}

// declareAttrib declares the sketch's families: the clean-call counter and
// the engine's window counter. The per-key GFLOPS statistics reach readers
// through the snapshot's Attrib section and /attrib.
func (r *Recorder) declareAttrib() {
	if r == nil {
		return
	}
	r.attrib.calls = r.CounterVec("libshalom_attrib_calls_total", "Clean (outcome ok) calls feeding the attribution sketch.", callLabels[:4]...)
	r.attrib.windows = r.Counter("libshalom_attrib_windows_total", "Completed attribution windows.")
}

// AttribCell is one attribution key's cumulative totals as read by the
// engine; the engine differences consecutive reads into windows.
type AttribCell struct {
	Count uint64
	DurNs uint64
	Flops uint64
	Hist  [NumAttribBuckets]uint64
}

// ReadAttrib copies the cumulative attribution cells into dst, in place so
// the engine's periodic poll does not allocate. A nil recorder zeroes dst.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) ReadAttrib(dst *[NumAttribKeys]AttribCell) {
	if r == nil {
		*dst = [NumAttribKeys]AttribCell{}
		return
	}
	for i := 0; i < NumAttribKeys; i++ {
		c := &dst[i]
		c.Count = r.attrib.calls.cells[i].v.Load()
		c.DurNs = r.attrib.durNs[i].Load()
		c.Flops = r.attrib.flops[i].Load()
		for b := 0; b < NumAttribBuckets; b++ {
			c.Hist[b] = r.attrib.hist[i][b].Load()
		}
	}
}

// AttribWindowDone counts one completed attribution window.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) AttribWindowDone() {
	if r == nil {
		return
	}
	r.attrib.windows.Add(1)
}

// AttribStat is one attribution key's cumulative summary in a Snapshot.
type AttribStat struct {
	Precision  string `json:"precision"`
	Mode       string `json:"mode"`
	ShapeClass string `json:"shape_class"`
	Kernel     string `json:"kernel"`

	Count uint64 `json:"count"`
	DurNs uint64 `json:"dur_ns"`
	Flops uint64 `json:"flops"`
	// MeanGFLOPS is time-weighted; P50/P99 come from the fine sketch.
	MeanGFLOPS float64 `json:"mean_gflops"`
	P50GFLOPS  float64 `json:"p50_gflops"`
	P99GFLOPS  float64 `json:"p99_gflops"`
}

// attribSnapshot renders the non-empty attribution cells.
func (r *Recorder) attribSnapshot() []AttribStat {
	var stats []AttribStat
	for i := 0; i < NumAttribKeys; i++ {
		count := r.attrib.calls.cells[i].v.Load()
		if count == 0 {
			continue
		}
		prec, mode, class, kernel := AttribKeyLabels(i)
		st := AttribStat{
			Precision: prec, Mode: mode, ShapeClass: class, Kernel: kernel,
			Count: count,
			DurNs: r.attrib.durNs[i].Load(),
			Flops: r.attrib.flops[i].Load(),
		}
		var hist [NumAttribBuckets]uint64
		for b := range hist {
			hist[b] = r.attrib.hist[i][b].Load()
		}
		if st.DurNs > 0 {
			st.MeanGFLOPS = float64(st.Flops) / float64(st.DurNs)
		}
		st.P50GFLOPS = AttribQuantile(&hist, 0.50)
		st.P99GFLOPS = AttribQuantile(&hist, 0.99)
		stats = append(stats, st)
	}
	return stats
}
