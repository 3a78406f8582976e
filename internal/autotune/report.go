package autotune

import (
	"encoding/json"
	"net/http"
	"time"

	"libshalom/internal/telemetry"
)

// ClassReport is one class's row in the /tune report.
type ClassReport struct {
	Precision  string `json:"precision"`
	ShapeClass string `json:"shape_class"`
	// State is the lifecycle position: idle, searching, proving, canary,
	// promoted, rejected, reverted.
	State string `json:"state"`
	// Kernel is the candidate's minted identity once one is canarying or
	// promoted (e.g. "tuned-5x12-kc8-pipelined").
	Kernel string `json:"kernel,omitempty"`
	MR     int    `json:"mr,omitempty"`
	NR     int    `json:"nr,omitempty"`
	KC     int    `json:"kc,omitempty"`
	// IncumbentKernel and the two GFLOPS figures are the search's modeled
	// comparison: what the class was serving vs what the candidate models.
	IncumbentKernel string  `json:"incumbent_kernel,omitempty"`
	IncumbentGFLOPS float64 `json:"incumbent_gflops,omitempty"`
	CandidateGFLOPS float64 `json:"candidate_gflops,omitempty"`
	// Detail carries the last rejection or revert reason.
	Detail    string    `json:"detail,omitempty"`
	UpdatedAt time.Time `json:"updated_at"`
}

// Report is the full /tune document.
type Report struct {
	Platform string  `json:"platform"`
	Margin   float64 `json:"margin"`
	// Lifetime counters across every class.
	Searched  uint64        `json:"searched"`
	Proved    uint64        `json:"proved"`
	Rejected  uint64        `json:"rejected"`
	Canaried  uint64        `json:"canaried"`
	Promoted  uint64        `json:"promoted"`
	Reverted  uint64        `json:"reverted"`
	Classes   []ClassReport `json:"classes,omitempty"`
	Generated time.Time     `json:"generated_at"`
}

// Report snapshots the engine. Safe on a nil engine (zero report).
func (e *Engine) Report() Report {
	if e == nil {
		return Report{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	rep := Report{
		Platform: e.cfg.Platform.Name,
		Margin:   e.cfg.Margin,
		Searched: e.searched, Proved: e.proved, Rejected: e.rejected,
		Canaried: e.canaried, Promoted: e.promoted, Reverted: e.reverted,
		Generated: time.Now(),
	}
	for _, k := range e.sortedKeys() {
		cs := e.classes[k]
		cr := ClassReport{
			Precision:  classLabel(k)[:3],
			ShapeClass: k.class.String(),
			State:      string(cs.state),
			Detail:     cs.detail,
			UpdatedAt:  cs.updated,
		}
		if cs.incumbent.Kernel != "" {
			cr.IncumbentKernel = cs.incumbent.Kernel
			cr.IncumbentGFLOPS = cs.incumbent.GFLOPS
		}
		if cs.cand.Kernel != "" {
			cr.Kernel = cs.cand.Kernel
			cr.MR, cr.NR, cr.KC = cs.cand.MR, cs.cand.NR, cs.cand.KC
			cr.CandidateGFLOPS = cs.cand.GFLOPS
		}
		rep.Classes = append(rep.Classes, cr)
	}
	return rep
}

// Handler serves the report as JSON. A nil engine answers 404, mirroring
// the /attrib off-path contract.
func (e *Engine) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if e == nil {
			http.Error(w, "autotuning disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(e.Report())
	}
}

// declareMetrics declares the engine's families on its recorder: the
// lifecycle event counter and installed-overrides gauge, and per-class
// gauges computed from the report at scrape time.
func (e *Engine) declareMetrics(r *telemetry.Recorder) {
	e.events = r.CounterVec("libshalom_autotune_events_total",
		"Autotuner lifecycle events: searches, proofs, rejections, canaries, promotions, reverts.",
		telemetry.Label{Name: "event", Values: []string{"search", "proved", "rejected", "canary", "promoted", "reverted"}})
	e.overrides = r.Gauge("libshalom_autotune_overrides", "Tuned dispatch overrides currently installed.")
	r.GaugeFunc("libshalom_autotune_class_state", "Tuning lifecycle state per shape class (1 = current state).",
		[]string{"precision", "shape_class", "state"}, func(emit telemetry.Emit) {
			for _, c := range e.Report().Classes {
				emit(1, c.Precision, c.ShapeClass, c.State)
			}
		})
	r.GaugeFunc("libshalom_autotune_class_candidate_gflops", "Modeled throughput of the class's tuned candidate.",
		[]string{"precision", "shape_class", "kernel"}, func(emit telemetry.Emit) {
			for _, c := range e.Report().Classes {
				if c.Kernel != "" {
					emit(c.CandidateGFLOPS, c.Precision, c.ShapeClass, c.Kernel)
				}
			}
		})
	r.GaugeFunc("libshalom_autotune_class_incumbent_gflops", "Modeled throughput of the tile the class was serving at search time.",
		[]string{"precision", "shape_class", "kernel"}, func(emit telemetry.Emit) {
			for _, c := range e.Report().Classes {
				if c.IncumbentKernel != "" {
					emit(c.IncumbentGFLOPS, c.Precision, c.ShapeClass, c.IncumbentKernel)
				}
			}
		})
}
