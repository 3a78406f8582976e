// Package attrib is the live performance-attribution engine: it joins the
// telemetry stream's per-(precision, mode, shape class, kernel) achieved
// GFLOPS with the models the repository already has — the analytic
// roofline ceiling (internal/analytic) and the uarch scoreboard prediction
// (internal/perfsim) — into rolling-window efficiency accounts, detects
// when a class drifts a configured margin below its model prediction, and
// ranks hot × underperforming keys into the tuning-candidate feed the
// ROADMAP's autotuner item consumes.
//
// Calibration. The serving runtime executes portable Go kernels on
// whatever host it lands on, while the models predict the ARM platform
// persona — so the absolute measured/predicted ratio is an arbitrary host
// constant. The engine therefore scores each key *relatively*: a global
// calibration factor (an EWMA of the best measured/predicted ratio across
// active keys) absorbs the host scale, and a key drifts when its own ratio
// falls Margin below that calibrated par for DriftWindows consecutive
// qualifying windows. On real ARM hardware the calibration converges near
// 1 and the comparison becomes the paper's Fig-6 efficiency reading;
// Calibrate=false pins the factor to 1 for that case.
//
// The engine is strictly off the GEMM hot path: the recorder's sketch is
// updated by CallDone, and the engine only polls cumulative counters on
// its window tick. A nil *Engine is the disabled layer — every exported
// method no-ops, a contract enforced by shalom-vet's telemetrypure
// analyzer alongside telemetry.Recorder and journal.Writer.
package attrib

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"libshalom/internal/analytic"
	"libshalom/internal/perfsim"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
)

// Config parameterises an Engine.
type Config struct {
	// Recorder is the telemetry stream to attribute; required.
	Recorder *telemetry.Recorder
	// Platform is the modeled platform; nil defaults to Kunpeng 920.
	Platform *platform.Platform
	// Threads is the per-call width the predictions model. The serving
	// batch path runs every entry single-threaded (§7.4), so servers pass
	// 1 (the default).
	Threads int
	// Window is the rolling accounting period; default 1s.
	Window time.Duration
	// Alpha is the EWMA weight of a new window; default 0.3.
	Alpha float64
	// Margin is the relative shortfall below calibrated par that counts as
	// drifting, in (0,1); default 0.35.
	Margin float64
	// DriftWindows (K) is how many consecutive qualifying windows a key
	// must stay below par before one drift event fires; default 3.
	DriftWindows int
	// MinWindowCalls is the qualification threshold: windows with fewer
	// clean calls on a key leave that key's account frozen; default 16.
	MinWindowCalls uint64
	// Calibrate enables the global host-scale calibration described in the
	// package comment. Servers leave it on; set CalibrateOff to disable.
	CalibrateOff bool
	// OnDrift, when non-nil, receives every drift event (after the
	// telemetry counter is bumped). Called on the engine's tick goroutine.
	OnDrift func(DriftEvent)
}

// DriftEvent is the typed event the drift detector emits.
type DriftEvent struct {
	Precision  string  `json:"precision"`
	Mode       string  `json:"mode"`
	ShapeClass string  `json:"shape_class"`
	Kernel     string  `json:"kernel"`
	Measured   float64 `json:"measured_gflops"`  // window EWMA
	Predicted  float64 `json:"predicted_gflops"` // model, uncalibrated
	RelEff     float64 `json:"rel_efficiency"`   // measured/predicted vs calibrated par
	Windows    int     `json:"windows_below"`    // consecutive windows below par
}

// Candidate is one ranked entry of the tuning-candidate feed — the schema
// the future autotuner consumes; keep it stable.
type Candidate struct {
	Precision  string `json:"precision"`
	Mode       string `json:"mode"`
	ShapeClass string `json:"shape_class"`
	Kernel     string `json:"kernel"`

	// Calls and Windows count clean calls ever observed on the key and
	// qualifying windows scored.
	Calls   uint64 `json:"calls"`
	Windows uint64 `json:"windows"`

	// Measured is the EWMA of window mean GFLOPS; P50/P99 come from the
	// latest qualifying window's sketch.
	MeasuredGFLOPS  float64 `json:"measured_gflops"`
	P50GFLOPS       float64 `json:"p50_gflops"`
	P99GFLOPS       float64 `json:"p99_gflops"`
	PredictedGFLOPS float64 `json:"predicted_gflops"`
	PeakGFLOPS      float64 `json:"peak_gflops"`
	RooflineGFLOPS  float64 `json:"roofline_gflops"`

	// RelEff is measured/predicted against calibrated par (1.0 = on
	// model); Efficiency is the raw measured/roofline Fig-6 reading.
	RelEff     float64 `json:"rel_efficiency"`
	Efficiency float64 `json:"roofline_efficiency"`

	// HotShare is the key's fraction of recent flops traffic; Shortfall is
	// max(0, 1-RelEff); Score = HotShare × Shortfall ranks the feed.
	HotShare  float64 `json:"hot_share"`
	Shortfall float64 `json:"shortfall"`
	Score     float64 `json:"score"`

	Drifting    bool   `json:"drifting"`
	DriftEvents uint64 `json:"drift_events"`
}

// Report is the /attrib endpoint's JSON body.
type Report struct {
	Platform    string        `json:"platform"`
	WindowMs    float64       `json:"window_ms"`
	Windows     uint64        `json:"windows"`
	Calibration float64       `json:"calibration"`
	DriftTotal  uint64        `json:"drift_events_total"`
	Candidates  []Candidate   `json:"candidates"`
	Events      []DriftEvent  `json:"recent_drift_events,omitempty"`
	GeneratedAt time.Time     `json:"generated_at"`
	Window      time.Duration `json:"-"`
}

// account is one key's rolling state.
type account struct {
	prev telemetry.AttribCell // cumulative totals at the last window edge

	calls   uint64 // clean calls ever observed
	windows uint64 // qualifying windows scored

	ewma     float64 // EWMA of window mean GFLOPS
	hotRate  float64 // EWMA of window flops/sec (hotness)
	p50, p99 float64 // latest qualifying window

	predicted float64 // model GFLOPS (lazy, memoised here per key)
	peak      float64
	roofline  float64
	havePred  bool

	relEff      float64
	badStreak   int
	drifting    bool
	driftEvents uint64
}

// Engine computes attribution accounts from a Recorder. A nil Engine is
// the disabled layer; every exported method no-ops.
type Engine struct {
	cfg  Config
	plat *platform.Platform

	mu       sync.Mutex
	cells    [telemetry.NumAttribKeys]telemetry.AttribCell
	accounts [telemetry.NumAttribKeys]account
	cal      float64 // calibrated host scale (EWMA), 0 until first estimate
	windows  uint64
	drifts   uint64
	recent   []DriftEvent // bounded ring of recent drift events

	drift *telemetry.CounterVec // drift events by shape class

	stop chan struct{}
	done chan struct{}
}

// maxRecentDrift bounds the recent-events list in the report.
const maxRecentDrift = 16

// New builds an Engine. Nil is returned when cfg.Recorder is nil — an
// engine without a stream is the disabled layer, and callers thread the
// nil through untouched.
func New(cfg Config) *Engine {
	if cfg.Recorder == nil {
		return nil
	}
	if cfg.Platform == nil {
		cfg.Platform = platform.KP920()
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.3
	}
	if cfg.Margin <= 0 || cfg.Margin >= 1 {
		cfg.Margin = 0.35
	}
	if cfg.DriftWindows < 1 {
		cfg.DriftWindows = 3
	}
	if cfg.MinWindowCalls == 0 {
		cfg.MinWindowCalls = 16
	}
	e := &Engine{cfg: cfg, plat: cfg.Platform}
	e.declareMetrics(cfg.Recorder)
	return e
}

// declareMetrics declares the engine's families on its recorder: the
// drift counter, and per-key gauges computed from the feed at scrape time.
func (e *Engine) declareMetrics(r *telemetry.Recorder) {
	var classes []string
	for _, c := range telemetry.ShapeClasses() {
		classes = append(classes, c.String())
	}
	e.drift = r.CounterVec("libshalom_attrib_drift_events_total", "Drift events the attribution engine emitted, by shape class.",
		telemetry.Label{Name: "shape_class", Values: classes})
	for _, g := range []struct {
		name, help string
		value      func(Candidate) float64
	}{
		{"libshalom_attrib_rel_efficiency", "Measured/predicted GFLOPS against calibrated par (1.0 = on model).",
			func(c Candidate) float64 { return c.RelEff }},
		{"libshalom_attrib_candidate_score", "Tuning-candidate rank score: hot share times shortfall.",
			func(c Candidate) float64 { return c.Score }},
	} {
		r.GaugeFunc(g.name, g.help, []string{"precision", "mode", "shape_class", "kernel"}, func(emit telemetry.Emit) {
			for _, c := range e.Feed() {
				emit(g.value(c), c.Precision, c.Mode, c.ShapeClass, c.Kernel)
			}
		})
	}
	r.GaugeFunc("libshalom_attrib_calibration", "Global host-scale calibration factor (measured/predicted par).", nil,
		func(emit telemetry.Emit) { emit(e.Report().Calibration) })
}

// Start launches the window ticker goroutine. Safe on nil; Close stops it.
func (e *Engine) Start() {
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.stop != nil {
		e.mu.Unlock()
		return
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	stop, done := e.stop, e.done
	e.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(e.cfg.Window)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				e.Step()
			}
		}
	}()
}

// Close stops the ticker goroutine, if one is running. Safe on nil.
func (e *Engine) Close() {
	if e == nil {
		return
	}
	e.mu.Lock()
	stop, done := e.stop, e.done
	e.stop, e.done = nil, nil
	e.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Step closes one accounting window: it differences the recorder's
// cumulative sketch against the previous edge, rescores every qualifying
// key, updates the calibration, and runs the drift detector. The ticker
// calls it on Window boundaries; tests call it directly for determinism.
func (e *Engine) Step() {
	if e == nil {
		return
	}
	e.mu.Lock()
	rec := e.cfg.Recorder
	rec.ReadAttrib(&e.cells)

	type winRow struct {
		idx    int
		calls  uint64
		gflops float64
		flops  uint64
		hist   [telemetry.NumAttribBuckets]uint64
	}
	var rows []winRow
	for i := 0; i < telemetry.NumAttribKeys; i++ {
		cur, prev := &e.cells[i], &e.accounts[i].prev
		dCalls := cur.Count - prev.Count
		if dCalls == 0 {
			continue
		}
		dDur := cur.DurNs - prev.DurNs
		dFlops := cur.Flops - prev.Flops
		e.accounts[i].calls = cur.Count
		if dCalls < e.cfg.MinWindowCalls || dDur == 0 {
			// Below the qualification floor: absorb the delta without
			// scoring, so idle keys never decay into false drift.
			e.accounts[i].prev = *cur
			continue
		}
		row := winRow{idx: i, calls: dCalls, gflops: float64(dFlops) / float64(dDur), flops: dFlops}
		for b := range row.hist {
			row.hist[b] = cur.Hist[b] - prev.Hist[b]
		}
		rows = append(rows, row)
		e.accounts[i].prev = *cur
	}

	// Lazy model lookups for newly active keys, and this window's best
	// measured/predicted ratio — the calibration observation.
	bestRatio := 0.0
	for _, row := range rows {
		a := &e.accounts[row.idx]
		if !a.havePred {
			prec, mode, class, kernel := telemetry.AttribKeyAt(row.idx)
			elem := 4
			if prec == telemetry.PrecF64 {
				elem = 8
			}
			m, n, k := telemetry.RepresentativeShape(telemetry.ShapeClass(class))
			a.predicted = perfsim.ClassPrediction(e.plat, elem, mode, class, kernel, e.cfg.Threads)
			rf := analytic.RooflineFor(e.plat, m, n, k, elem, e.cfg.Threads)
			a.peak = rf.PeakGFLOPS
			a.roofline = rf.Attainable()
			a.havePred = true
		}
		if a.predicted > 0 {
			if r := row.gflops / a.predicted; r > bestRatio {
				bestRatio = r
			}
		}
	}
	if !e.cfg.CalibrateOff && bestRatio > 0 {
		if e.cal == 0 {
			e.cal = bestRatio
		} else {
			e.cal += e.cfg.Alpha * (bestRatio - e.cal)
		}
	}
	cal := e.cal
	if e.cfg.CalibrateOff || cal == 0 {
		cal = 1
	}

	winSec := e.cfg.Window.Seconds()
	var fired []DriftEvent
	for _, row := range rows {
		a := &e.accounts[row.idx]
		a.windows++
		if a.ewma == 0 {
			a.ewma = row.gflops
		} else {
			a.ewma += e.cfg.Alpha * (row.gflops - a.ewma)
		}
		rate := float64(row.flops) / winSec
		if a.hotRate == 0 {
			a.hotRate = rate
		} else {
			a.hotRate += e.cfg.Alpha * (rate - a.hotRate)
		}
		a.p50 = telemetry.AttribQuantile(&row.hist, 0.50)
		a.p99 = telemetry.AttribQuantile(&row.hist, 0.99)
		if a.predicted <= 0 {
			continue
		}
		a.relEff = row.gflops / a.predicted / cal
		if a.relEff < 1-e.cfg.Margin {
			a.badStreak++
			if a.badStreak >= e.cfg.DriftWindows && !a.drifting {
				a.drifting = true
				a.driftEvents++
				e.drifts++
				prec, mode, class, kernel := telemetry.AttribKeyLabels(row.idx)
				_, _, classIdx, _ := telemetry.AttribKeyAt(row.idx)
				e.drift.At(int(classIdx)).Add(1)
				ev := DriftEvent{
					Precision: prec, Mode: mode, ShapeClass: class, Kernel: kernel,
					Measured: a.ewma, Predicted: a.predicted,
					RelEff: a.relEff, Windows: a.badStreak,
				}
				e.recent = append(e.recent, ev)
				if len(e.recent) > maxRecentDrift {
					e.recent = e.recent[len(e.recent)-maxRecentDrift:]
				}
				fired = append(fired, ev)
			}
		} else {
			// A compliant window clears the streak and un-latches drift —
			// the detector reports recovery the same way breakers re-close.
			a.badStreak = 0
			a.drifting = false
		}
	}
	e.windows++
	rec.AttribWindowDone()
	onDrift := e.cfg.OnDrift
	e.mu.Unlock()

	if onDrift != nil {
		for _, ev := range fired {
			onDrift(ev)
		}
	}
}

// Feed returns the ranked tuning-candidate feed: every scored key, ordered
// by Score (hot × underperforming) descending with deterministic
// tie-breaking on the dense key order.
func (e *Engine) Feed() []Candidate {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.feedLocked()
}

func (e *Engine) feedLocked() []Candidate {
	var totalRate float64
	for i := range e.accounts {
		totalRate += e.accounts[i].hotRate
	}
	var out []Candidate
	for i := range e.accounts {
		a := &e.accounts[i]
		if a.windows == 0 {
			continue
		}
		prec, mode, class, kernel := telemetry.AttribKeyLabels(i)
		c := Candidate{
			Precision: prec, Mode: mode, ShapeClass: class, Kernel: kernel,
			Calls: a.calls, Windows: a.windows,
			MeasuredGFLOPS: a.ewma, P50GFLOPS: a.p50, P99GFLOPS: a.p99,
			PredictedGFLOPS: a.predicted, PeakGFLOPS: a.peak, RooflineGFLOPS: a.roofline,
			RelEff:   a.relEff,
			Drifting: a.drifting, DriftEvents: a.driftEvents,
		}
		if a.roofline > 0 {
			c.Efficiency = a.ewma / a.roofline
		}
		if totalRate > 0 {
			c.HotShare = a.hotRate / totalRate
		}
		if c.RelEff < 1 {
			c.Shortfall = 1 - c.RelEff
		}
		c.Score = c.HotShare * c.Shortfall
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// Report assembles the /attrib JSON body. Safe on nil (zero report).
func (e *Engine) Report() Report {
	if e == nil {
		return Report{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cal := e.cal
	if e.cfg.CalibrateOff || cal == 0 {
		cal = 1
	}
	r := Report{
		Platform:    e.plat.Name,
		WindowMs:    float64(e.cfg.Window) / float64(time.Millisecond),
		Window:      e.cfg.Window,
		Windows:     e.windows,
		Calibration: cal,
		DriftTotal:  e.drifts,
		Candidates:  e.feedLocked(),
		GeneratedAt: time.Now(),
	}
	r.Events = append(r.Events, e.recent...)
	return r
}

// DriftTotal returns the cumulative drift events. Safe on nil.
func (e *Engine) DriftTotal() uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.drifts
}

// Windows returns the number of closed accounting windows. Safe on nil.
func (e *Engine) Windows() uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.windows
}

// Handler serves the report as JSON — the /attrib endpoint body.
// Safe on nil: serves 404 when the engine is disabled.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if e == nil {
			http.Error(w, "attribution disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(e.Report())
	})
}
