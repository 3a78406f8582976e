package telemetry

import (
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// The metric-family registry. Every /metrics series — the driver's, and
// those of the serving layer, router, journal, attribution engine and
// autotuner sharing a recorder — is declared once, as a family on the
// Recorder, in the package where its events happen:
//
//	accepted := rec.Counter("libshalom_server_requests_accepted_total",
//		"Requests admitted into a coalescing queue.")
//	accepted.Add(1)
//
// Counter, gauge and log2-histogram families keep their cells in dense
// atomic arrays allocated at declaration, so recording through a handle
// is a static call and an atomic add: no map lookup, no lock, no
// allocation (the handle methods carry //shalom:hotpath proofs). A
// labelled family's label values form closed sets, and a cell's dense
// index enumerates them with the first label outermost. Series computed
// from a report at scrape time — per-backend router state, attribution and
// autotune gauges, Go runtime gauges — are declared as callback families.
// One Prometheus writer and one JSON rendering (Family) cover every
// family. A nil Recorder declares nothing and hands out nil handles, which
// record nothing.

// Label is one label of a dense family: its name and closed value set.
type Label struct {
	Name   string
	Values []string
}

// Log2 lays out a histogram family. Bucket b counts observations v (in raw
// units) with 2^(b-1) <= v < 2^b; bucket 0 holds v < 1 and the top bucket
// everything above. Scale is raw units per exposed unit (1e9 for
// nanoseconds exposed as seconds), so bucket b's le bound is 2^b/Scale.
// NoSum drops the _sum series.
type Log2 struct {
	Buckets int
	Scale   float64
	NoSum   bool
}

// Counter is one counter series.
type Counter struct{ v atomic.Uint64 }

// Add increases the counter by n.
//
//shalom:hotpath noalloc,nolock,noblock
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Gauge is one gauge series.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by d.
//
//shalom:hotpath noalloc,nolock,noblock
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Set sets the gauge to v.
//
//shalom:hotpath noalloc,nolock,noblock
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Histogram is one log2-bucketed histogram series.
type Histogram struct {
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, raw units
}

// Observe records one observation of v raw units.
//
//shalom:hotpath noalloc,nolock,noblock
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketLog2(uint64(v), len(h.counts))].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// CounterVec is a labelled counter family's cells.
type CounterVec struct{ cells []Counter }

// At returns the counter of dense cell i; nil on a nil vector.
//
//shalom:hotpath noalloc,nolock,noblock
func (v *CounterVec) At(i int) *Counter {
	if v == nil {
		return nil
	}
	return &v.cells[i]
}

// HistogramVec is a labelled histogram family's cells.
type HistogramVec struct{ cells []Histogram }

// At returns the histogram of dense cell i; nil on a nil vector.
//
//shalom:hotpath noalloc,nolock,noblock
func (v *HistogramVec) At(i int) *Histogram {
	if v == nil {
		return nil
	}
	return &v.cells[i]
}

// Emit reports one series of a callback family: its value and its label
// values, in the family's label order.
type Emit func(v float64, labelValues ...string)

// family is one declared metric family.
type family struct {
	name, help, typ string
	labels          []Label
	counters        []Counter
	gauges          []Gauge
	hists           []Histogram
	layout          Log2
	collect         func(Emit) // callback families only
}

// numCells is the size of a dense family's label space.
func numCells(labels []Label) int {
	n := 1
	for _, l := range labels {
		n *= len(l.Values)
	}
	return n
}

// declare registers f, or returns the family already declared under its
// name — subsystems sharing a recorder share its families. A callback
// family's new callback replaces the old one, so the latest instance of a
// subsystem reports.
func (r *Recorder) declare(f *family) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.families {
		if have.name != f.name {
			continue
		}
		if have.typ != f.typ || len(have.labels) != len(f.labels) || len(have.counters) != len(f.counters) ||
			len(have.gauges) != len(f.gauges) || len(have.hists) != len(f.hists) || (have.collect == nil) != (f.collect == nil) {
			panic("telemetry: family " + f.name + " redeclared with a different shape")
		}
		if f.collect != nil {
			have.collect = f.collect
		}
		return have
	}
	r.families = append(r.families, f)
	return f
}

// CounterVec declares a labelled counter family.
func (r *Recorder) CounterVec(name, help string, labels ...Label) *CounterVec {
	if r == nil {
		return nil
	}
	f := r.declare(&family{name: name, help: help, typ: "counter", labels: labels, counters: make([]Counter, numCells(labels))})
	return &CounterVec{cells: f.counters}
}

// Counter declares an unlabelled counter family.
func (r *Recorder) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.CounterVec(name, help).At(0)
}

// Gauge declares an unlabelled gauge family.
func (r *Recorder) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.declare(&family{name: name, help: help, typ: "gauge", gauges: make([]Gauge, 1)})
	return &f.gauges[0]
}

// HistogramVec declares a labelled log2-histogram family.
func (r *Recorder) HistogramVec(name, help string, layout Log2, labels ...Label) *HistogramVec {
	if r == nil {
		return nil
	}
	n := numCells(labels)
	hists := make([]Histogram, n)
	counts := make([]atomic.Uint64, n*layout.Buckets)
	for i := range hists {
		hists[i].counts = counts[i*layout.Buckets : (i+1)*layout.Buckets]
	}
	f := r.declare(&family{name: name, help: help, typ: "histogram", labels: labels, hists: hists, layout: layout})
	return &HistogramVec{cells: f.hists}
}

// Histogram declares an unlabelled log2-histogram family.
func (r *Recorder) Histogram(name, help string, layout Log2) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramVec(name, help, layout).At(0)
}

// CounterFunc declares a counter family whose series collect reports at
// scrape time.
func (r *Recorder) CounterFunc(name, help string, labels []string, collect func(Emit)) {
	r.declare(&family{name: name, help: help, typ: "counter", labels: labelNames(labels), collect: collect})
}

// GaugeFunc declares a gauge family whose series collect reports at
// scrape time.
func (r *Recorder) GaugeFunc(name, help string, labels []string, collect func(Emit)) {
	r.declare(&family{name: name, help: help, typ: "gauge", labels: labelNames(labels), collect: collect})
}

func labelNames(names []string) []Label {
	labels := make([]Label, len(names))
	for i, n := range names {
		labels[i].Name = n
	}
	return labels
}

// Family is one metric family as the registry renders it, the unit of
// both the Prometheus exposition and the JSON snapshot.
type Family struct {
	Name   string   `json:"name"`
	Help   string   `json:"help"`
	Type   string   `json:"type"`
	Labels []string `json:"labels,omitempty"`
	// Scale and NoSum carry a histogram's layout (see Log2).
	Scale  float64  `json:"scale,omitempty"`
	NoSum  bool     `json:"no_sum,omitempty"`
	Series []Series `json:"series"`
}

// Series is one series of a family: its label values, in Family.Labels
// order, and its value. A histogram series' value is its observation
// count; Buckets holds the per-bucket (not cumulative) counts and Sum the
// observation sum in exposed units.
type Series struct {
	Labels  []string `json:"labels,omitempty"`
	Value   float64  `json:"value"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Families renders every family declared on the recorder, in declaration
// order. A labelled dense family lists only its non-zero cells; an
// unlabelled family always lists its one series. Nil on a nil recorder.
func (r *Recorder) Families() []Family {
	if r == nil {
		return nil
	}
	type entry struct {
		f       *family
		collect func(Emit)
	}
	r.mu.Lock()
	entries := make([]entry, len(r.families))
	for i, f := range r.families {
		entries[i] = entry{f, f.collect}
	}
	r.mu.Unlock()
	out := make([]Family, len(entries))
	for i, e := range entries {
		out[i] = e.f.render(e.collect)
	}
	return out
}

func (f *family) render(collect func(Emit)) Family {
	out := Family{Name: f.name, Help: f.help, Type: f.typ, Series: []Series{}}
	for _, l := range f.labels {
		out.Labels = append(out.Labels, l.Name)
	}
	add := func(cell int, s Series) {
		s.Labels = f.labelValues(cell)
		out.Series = append(out.Series, s)
	}
	switch {
	case collect != nil:
		collect(func(v float64, labelValues ...string) {
			out.Series = append(out.Series, Series{Labels: slices.Clone(labelValues), Value: v})
		})
	case f.counters != nil:
		for i := range f.counters {
			if v := f.counters[i].v.Load(); v != 0 || len(f.labels) == 0 {
				add(i, Series{Value: float64(v)})
			}
		}
	case f.gauges != nil:
		add(0, Series{Value: float64(f.gauges[0].v.Load())})
	case f.hists != nil:
		out.Scale, out.NoSum = f.layout.Scale, f.layout.NoSum
		for i := range f.hists {
			h := &f.hists[i]
			s := Series{Buckets: make([]uint64, len(h.counts))}
			var n uint64
			for b := range h.counts {
				s.Buckets[b] = h.counts[b].Load()
				n += s.Buckets[b]
			}
			if n == 0 && len(f.labels) > 0 {
				continue
			}
			s.Value = float64(n)
			s.Sum = math.Float64frombits(h.sum.Load()) / f.layout.Scale
			add(i, s)
		}
	}
	return out
}

// labelValues decodes a dense cell index into its label values.
func (f *family) labelValues(cell int) []string {
	if len(f.labels) == 0 {
		return nil
	}
	vals := make([]string, len(f.labels))
	for j := len(f.labels) - 1; j >= 0; j-- {
		n := len(f.labels[j].Values)
		vals[j] = f.labels[j].Values[cell%n]
		cell /= n
	}
	return vals
}

// WritePrometheus renders families in the Prometheus text exposition
// format (version 0.0.4). Histogram buckets are cumulative and sparse:
// a bucket appears when it adds observations, and the top bucket and +Inf
// always appear.
func WritePrometheus(w io.Writer, fams []Family) error {
	var b []byte
	for _, f := range fams {
		b = append(b, "# HELP "+f.Name+" "+f.Help+"\n# TYPE "+f.Name+" "+f.Type+"\n"...)
		for _, s := range f.Series {
			if f.Type != "histogram" {
				b = appendSample(b, f.Name, f.Labels, s.Labels, "", s.Value)
				continue
			}
			var cum uint64
			for i, n := range s.Buckets {
				cum += n
				if n == 0 && i != len(s.Buckets)-1 {
					continue
				}
				le := strconv.FormatFloat(float64(uint64(1)<<uint(i))/f.Scale, 'g', -1, 64)
				b = appendSample(b, f.Name+"_bucket", f.Labels, s.Labels, le, float64(cum))
			}
			b = appendSample(b, f.Name+"_bucket", f.Labels, s.Labels, "+Inf", float64(cum))
			if !f.NoSum {
				b = appendSample(b, f.Name+"_sum", f.Labels, s.Labels, "", s.Sum)
			}
			b = appendSample(b, f.Name+"_count", f.Labels, s.Labels, "", float64(cum))
		}
	}
	_, err := w.Write(b)
	return err
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// appendSample renders one sample line; le, when non-empty, is appended
// as the bucket bound label.
func appendSample(b []byte, name string, names, values []string, le string, v float64) []byte {
	b = append(b, name...)
	if len(names) > 0 || le != "" {
		b = append(b, '{')
		for i, n := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, n+`="`+labelEscaper.Replace(values[i])+`"`...)
		}
		if le != "" {
			if len(names) > 0 {
				b = append(b, ',')
			}
			b = append(b, `le="`+le+`"`...)
		}
		b = append(b, '}')
	}
	b = append(b, ' ')
	// Integral values print as integers, so counters read as counts.
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		b = strconv.AppendFloat(b, v, 'f', -1, 64)
	} else {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}
