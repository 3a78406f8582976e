// Package autotune is the traffic-adaptive kernel tuning loop: it closes
// the circle between the live performance-attribution engine (which ranks
// hot × underperforming shape classes) and the dispatch-override machinery
// (which can hot-swap a tuned register tile behind a canary breaker).
//
// The loop per class is a one-way state machine:
//
//	idle → searching → proving → canary → promoted
//	                 ↘ rejected          ↘ reverted
//
// searching enumerates every register tile inside the proven generator
// family's symbolic domain and scores it on the uarch scoreboard model;
// proving runs the full static gate — the isacheck contract passes and the
// symbolic family footprint proof, then vexec-vs-reference numeric
// validation of the exact program that would serve — on the ranked
// survivors; canary installs the first proved winner as a dispatch override
// behind a probing breaker minted for it alone, so live traffic shadow-
// checks every canaried call against the reference kernel. The breaker
// decides the endgame: it closes (promoted — the tile serves unshadowed) or
// trips (reverted — the override is atomically evicted and the incumbent
// restored before any wrong result reaches a client).
//
// Nothing in this package executes on the GEMM hot path. The loop runs on
// its own goroutine; the hot path only ever sees the finished product — a
// one-atomic-load override lookup (guard.OverrideFor).
package autotune

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"libshalom/internal/attrib"
	"libshalom/internal/guard"
	"libshalom/internal/heal"
	"libshalom/internal/journal"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
)

// State is one class's position in the tuning lifecycle.
type State string

// Lifecycle states, in order.
const (
	StateIdle      State = "idle"
	StateSearching State = "searching"
	StateProving   State = "proving"
	StateCanary    State = "canary"
	StatePromoted  State = "promoted"
	StateRejected  State = "rejected"
	StateReverted  State = "reverted"
)

// Config is the tuning-loop policy. Zero fields select the documented
// defaults.
type Config struct {
	// Recorder receives the autotune lifecycle counters and the breaker
	// gauge rebalances. Nil disables the engine: New returns nil, and the
	// nil engine's whole method set is a no-op (the same off-path contract
	// as telemetry and attribution).
	Recorder *telemetry.Recorder
	// Attrib is the candidate feed: the loop tunes the top-ranked
	// hot × underperforming class. Nil means no automatic candidate intake
	// (Step still polls canaries, and TuneNow still works — the offline and
	// operator-driven entry points).
	Attrib *attrib.Engine
	// Platform is the machine model searched and proved against. Default
	// KP920.
	Platform *platform.Platform
	// Interval is the loop period. Default 2s.
	Interval time.Duration
	// Margin is the required modeled-throughput improvement over the
	// incumbent tile before a candidate is worth canarying: candidate ≥
	// incumbent × (1 + Margin). Default 0.10.
	Margin float64
	// MinScore is the attribution-score floor (hot share × shortfall) below
	// which a feed candidate is not worth tuning. Default 0.01.
	MinScore float64
	// MaxAttempts bounds how many ranked candidates one search will push
	// through the proof gate before giving up. Default 3.
	MaxAttempts int
	// Journal, when non-nil, records every promotion and revert as
	// tamper-evident tune records, so replay reproduces the tuning
	// decisions. Nil-safe.
	Journal *journal.Writer
}

func (c Config) withDefaults() Config {
	if c.Platform == nil {
		c.Platform = platform.KP920()
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Margin <= 0 {
		c.Margin = 0.10
	}
	if c.MinScore <= 0 {
		c.MinScore = 0.01
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	return c
}

// classKey identifies one tuned unit: element size × shape class.
type classKey struct {
	elem  int
	class telemetry.ShapeClass
}

// classState is the engine's book on one class.
type classState struct {
	state     State
	incumbent Candidate
	cand      Candidate
	path      string // override breaker path while canary/promoted
	detail    string
	updated   time.Time
}

// Engine is the closed-loop autotuner.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	classes map[classKey]*classState
	// Lifetime counters, one per lifecycle event kind.
	searched, proved, rejected, canaried, promoted, reverted uint64

	events    *telemetry.CounterVec // lifecycle events by kind
	overrides *telemetry.Gauge      // installed dispatch overrides

	stop chan struct{}
	done chan struct{}
}

// New builds an engine over the recorder, or nil when the recorder is nil
// (autotuning off). Every method of the nil engine is a no-op.
func New(cfg Config) *Engine {
	if cfg.Recorder == nil {
		return nil
	}
	e := &Engine{cfg: cfg.withDefaults(), classes: map[classKey]*classState{}}
	e.declareMetrics(cfg.Recorder)
	return e
}

// Lifecycle event kinds, in order: the event label values of
// libshalom_autotune_events_total.
const (
	// evSearch: one class search launched (candidate enumeration + model
	// scoring).
	evSearch = iota
	// evProved: a candidate cleared the full proof gate (isacheck contract
	// + symbolic family proof + vexec-vs-reference validation).
	evProved
	// evRejected: a class search ended with no candidate worth promoting
	// (none beat the incumbent's modeled throughput by the margin, or none
	// survived the proof gate).
	evRejected
	// evCanary: a proved candidate was installed as a dispatch override
	// behind a probing breaker (serving canary-shadowed traffic).
	evCanary
	// evPromoted: the candidate's breaker closed — the tuned tile now
	// serves its class unshadowed.
	evPromoted
	// evReverted: the candidate's breaker tripped (or an operator cleared
	// the override) — the incumbent tile was restored.
	evReverted
)

// Start launches the tuning loop goroutine. Safe to call on a nil engine;
// a second Start is a no-op.
func (e *Engine) Start() {
	if e == nil || e.stop != nil {
		return
	}
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		t := time.NewTicker(e.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				e.Step()
			}
		}
	}()
}

// Close stops the loop and waits for it. Installed overrides stay: a
// promoted tile outlives the loop that found it.
func (e *Engine) Close() {
	if e == nil || e.stop == nil {
		return
	}
	close(e.stop)
	<-e.done
	e.stop, e.done = nil, nil
}

// Step runs one loop iteration synchronously: settle every in-flight
// canary and watched promotion against the breaker registry, then — if no
// canary is in flight — pull the top attribution candidate and tune it.
// Exported so tests and the offline CLI can drive the machine
// deterministically.
func (e *Engine) Step() {
	if e == nil {
		return
	}
	e.poll()
	if e.canaryInFlight() {
		return
	}
	k, ok := e.pick()
	if !ok {
		return
	}
	e.tune(k)
}

// poll settles canaried and promoted classes against ground truth: the
// override table (a trip evicts the override atomically) and the breaker
// state (probing → still canarying, healthy → promoted).
func (e *Engine) poll() {
	plat := e.cfg.Platform.Name
	e.mu.Lock()
	defer e.mu.Unlock()
	for key, cs := range e.classes {
		if cs.state != StateCanary && cs.state != StatePromoted {
			continue
		}
		ov, ok := guard.OverrideFor(key.elem, uint8(key.class))
		if !ok || ov.Path != cs.path {
			e.revertLocked(key, cs)
			continue
		}
		switch guard.StateOf(plat, cs.path) {
		case guard.StateHealthy:
			if cs.state == StateCanary {
				e.promoteLocked(key, cs)
			}
		case guard.StateOpen:
			// A trip evicts the override before recording, so this branch
			// only fires if the poll raced the eviction; treat it as the
			// revert it is about to become.
			e.revertLocked(key, cs)
		}
	}
}

// promoteLocked records a canary→promoted transition. Callers hold e.mu.
func (e *Engine) promoteLocked(key classKey, cs *classState) {
	cs.state = StatePromoted
	cs.detail = ""
	cs.updated = time.Now()
	e.promoted++
	e.events.At(evPromoted).Add(1)
	e.cfg.Journal.TunePromote(e.cfg.Platform.Name, classLabel(key), cs.cand.Kernel,
		cs.cand.MR, cs.cand.NR, cs.cand.KC, cs.cand.GFLOPS)
}

// revertLocked records a canary/promoted→reverted transition: the override
// is already gone (the trip evicted it), so this is pure bookkeeping — the
// journal record, the lifecycle counter, the overrides gauge, retiring the
// candidate's private breaker record, and rebalancing the breaker state
// gauges the install skewed. Callers hold e.mu.
func (e *Engine) revertLocked(key classKey, cs *classState) {
	plat := e.cfg.Platform.Name
	detail := "override cleared"
	if d, ok := guard.Demotion(plat, cs.path); ok {
		detail = fmt.Sprintf("%s: %s", d.Reason, d.Detail)
	}
	switch guard.StateOf(plat, cs.path) {
	case guard.StateOpen:
		e.cfg.Recorder.BreakerTransition(telemetry.BreakerOpen, telemetry.BreakerHealthy)
	case guard.StateProbing:
		e.cfg.Recorder.BreakerTransition(telemetry.BreakerProbing, telemetry.BreakerHealthy)
	}
	guard.Forget(plat, cs.path)
	cs.state = StateReverted
	cs.detail = detail
	cs.updated = time.Now()
	e.reverted++
	e.events.At(evReverted).Add(1)
	e.overrides.Add(-1)
	e.cfg.Journal.TuneRevert(plat, classLabel(key), cs.cand.Kernel,
		cs.cand.MR, cs.cand.NR, cs.cand.KC, detail)
}

// canaryInFlight reports whether any class is currently canarying. The loop
// tunes one candidate at a time: a second install would dilute the canary
// traffic and make a trip ambiguous to attribute.
func (e *Engine) canaryInFlight() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, cs := range e.classes {
		if cs.state == StateCanary {
			return true
		}
	}
	return false
}

// pick selects the next class to tune from the attribution feed: the
// top-ranked candidate whose score clears the floor and whose class is
// still idle. Rejected and reverted classes are terminal for the automatic
// loop — retuning a class that just failed would ping-pong.
func (e *Engine) pick() (classKey, bool) {
	feed := e.cfg.Attrib.Feed()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range feed {
		if c.Score < e.cfg.MinScore {
			break // feed is sorted by score descending
		}
		k, ok := keyFor(c.Precision, c.ShapeClass)
		if !ok {
			continue
		}
		cs := e.classes[k]
		if cs != nil && cs.state != StateIdle {
			continue
		}
		return k, true
	}
	return classKey{}, false
}

// tune runs one class through search → prove → install.
func (e *Engine) tune(k classKey) {
	cs := e.transition(k, StateSearching, "")
	e.mu.Lock()
	e.searched++
	e.mu.Unlock()
	e.events.At(evSearch).Add(1)

	sr := Search(e.cfg.Platform, k.elem, k.class)
	e.mu.Lock()
	cs.incumbent = sr.Incumbent
	e.mu.Unlock()
	floor := sr.Incumbent.GFLOPS * (1 + e.cfg.Margin)
	var worthy []Candidate
	for _, c := range sr.Candidates {
		if c.GFLOPS >= floor {
			worthy = append(worthy, c)
		}
	}
	if len(worthy) == 0 {
		e.reject(k, fmt.Sprintf("no candidate beats incumbent %s (%.1f GFLOPS) by %.0f%%",
			sr.Incumbent.Kernel, sr.Incumbent.GFLOPS, e.cfg.Margin*100))
		return
	}
	if len(worthy) > e.cfg.MaxAttempts {
		worthy = worthy[:e.cfg.MaxAttempts]
	}

	e.transition(k, StateProving, "")
	for _, c := range worthy {
		if err := Prove(e.cfg.Platform, k.elem, c); err != nil {
			e.setDetail(k, fmt.Sprintf("candidate %s failed proof: %v", c.Kernel, err))
			continue
		}
		e.mu.Lock()
		e.proved++
		e.mu.Unlock()
		e.events.At(evProved).Add(1)
		e.install(k, c)
		return
	}
	e.reject(k, fmt.Sprintf("none of %d worthy candidates survived the proof gate", len(worthy)))
}

// install hot-swaps a proved candidate in as the class's dispatch override,
// behind a freshly minted probing breaker: every canaried call is shadowed
// against the reference kernel until the breaker closes or trips.
func (e *Engine) install(k classKey, c Candidate) {
	plat := e.cfg.Platform.Name
	path := guard.MintOverridePath(k.elem, k.class.String())
	guard.SetOverride(k.elem, uint8(k.class), guard.TileOverride{
		MR: c.MR, NR: c.NR, KC: c.KC, Kernel: c.Kernel, Path: path,
	})
	heal.BeginProbation(plat, path)
	e.cfg.Recorder.BreakerTransition(telemetry.BreakerHealthy, telemetry.BreakerProbing)
	e.events.At(evCanary).Add(1)
	e.overrides.Add(1)

	e.mu.Lock()
	cs := e.stateLocked(k)
	cs.state = StateCanary
	cs.cand = c
	cs.path = path
	cs.detail = ""
	cs.updated = time.Now()
	e.canaried++
	e.mu.Unlock()
}

// reject ends a search with no install.
func (e *Engine) reject(k classKey, detail string) {
	e.transition(k, StateRejected, detail)
	e.mu.Lock()
	e.rejected++
	e.mu.Unlock()
	e.events.At(evRejected).Add(1)
}

// transition moves a class to a new state and returns its record.
func (e *Engine) transition(k classKey, s State, detail string) *classState {
	e.mu.Lock()
	defer e.mu.Unlock()
	cs := e.stateLocked(k)
	cs.state = s
	cs.detail = detail
	cs.updated = time.Now()
	return cs
}

func (e *Engine) setDetail(k classKey, detail string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stateLocked(k).detail = detail
}

// stateLocked returns (creating if needed) the class record. Callers hold
// e.mu.
func (e *Engine) stateLocked(k classKey) *classState {
	cs := e.classes[k]
	if cs == nil {
		cs = &classState{state: StateIdle}
		e.classes[k] = cs
	}
	return cs
}

// TuneNow runs one full search → prove → install pass for a named class,
// bypassing the attribution feed — the operator and offline entry point.
// It refuses while that class is already canarying or mid-tune.
func (e *Engine) TuneNow(precision, class string) error {
	if e == nil {
		return fmt.Errorf("autotune: engine disabled")
	}
	k, ok := keyFor(precision, class)
	if !ok {
		return fmt.Errorf("autotune: unknown class %s/%s", precision, class)
	}
	e.mu.Lock()
	if cs := e.classes[k]; cs != nil &&
		(cs.state == StateSearching || cs.state == StateProving || cs.state == StateCanary) {
		st := cs.state
		e.mu.Unlock()
		return fmt.Errorf("autotune: class %s/%s is busy (%s)", precision, class, st)
	}
	// Re-arm a settled class so the operator can retune it.
	e.stateLocked(k).state = StateIdle
	e.mu.Unlock()
	e.tune(k)
	return nil
}

// keyFor parses an attribution key's precision and shape-class labels.
func keyFor(precision, class string) (classKey, bool) {
	var elem int
	switch precision {
	case "f32":
		elem = 4
	case "f64":
		elem = 8
	default:
		return classKey{}, false
	}
	for _, sc := range telemetry.ShapeClasses() {
		if sc.String() == class && sc != telemetry.ShapeEmpty {
			return classKey{elem: elem, class: sc}, true
		}
	}
	return classKey{}, false
}

// classLabel renders a key as the journal's precision/class label.
func classLabel(k classKey) string {
	p := "f32"
	if k.elem == 8 {
		p = "f64"
	}
	return p + "/" + k.class.String()
}

// sortedKeys returns the tracked class keys in deterministic order.
func (e *Engine) sortedKeys() []classKey {
	keys := make([]classKey, 0, len(e.classes))
	for k := range e.classes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].elem != keys[j].elem {
			return keys[i].elem < keys[j].elem
		}
		return keys[i].class < keys[j].class
	})
	return keys
}
