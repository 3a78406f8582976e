package router

import (
	"sync"
	"time"

	"libshalom/internal/guard"
)

// Backend states of the outlier-ejection state machine — the fleet-level
// twin of the per-kernel circuit breakers in internal/guard: consecutive
// forward/probe failures eject a backend from routing, and exponential-
// backoff readiness probes readmit it once it answers again. Ready is an
// orthogonal flag: a draining backend (readiness 503) is alive but
// deliberately out of rotation, so it is routed around without being
// ejected or penalized.
type backendState int

const (
	// StateHealthy: the backend receives traffic when its readiness flag is
	// up.
	StateHealthy backendState = iota
	// StateEjected: consecutive failures crossed the threshold; the backend
	// receives no traffic until a backoff readiness probe succeeds.
	StateEjected
)

func (s backendState) String() string {
	if s == StateEjected {
		return "ejected"
	}
	return "healthy"
}

// backend is one shalom-serve node in the fleet. Every mutable field lives
// behind mu; the request path takes the lock briefly per outcome, far off
// any proven hot path.
type backend struct {
	index int
	id    string // base URL, the rendezvous identity

	mu          sync.Mutex
	state       backendState
	ready       bool
	consecFails int
	trips       int       // ejections so far: the backoff exponent
	readmitAt   time.Time // earliest readmission probe while ejected
	lastErr     string

	routed   uint64 // 200s served
	failures uint64 // 5xx/connect failures observed
	sheds    uint64 // 429s observed
}

// BackendHealth is one backend's row in the router's /healthz body.
type BackendHealth struct {
	URL         string `json:"url"`
	State       string `json:"state"`
	Ready       bool   `json:"ready"`
	ConsecFails int    `json:"consec_fails"`
	Trips       int    `json:"trips"`
	Routed      uint64 `json:"routed"`
	Failures    uint64 `json:"failures"`
	Sheds       uint64 `json:"sheds"`
	LastErr     string `json:"last_err,omitempty"`
}

func (b *backend) health() BackendHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendHealth{
		URL: b.id, State: b.state.String(), Ready: b.ready,
		ConsecFails: b.consecFails, Trips: b.trips,
		Routed: b.routed, Failures: b.failures, Sheds: b.sheds,
		LastErr: b.lastErr,
	}
}

// eligible reports whether the backend may receive traffic right now.
func (b *backend) eligible() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == StateHealthy && b.ready
}

// ejected reports the state for the fleet gauges.
func (b *backend) isEjected() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == StateEjected
}

// recordSuccess clears the failure streak: the backend answered a request.
// A passive success also restores readiness — a node that serves 200s is
// accepting traffic whatever the last probe said.
func (b *backend) recordSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.routed++
	b.consecFails = 0
	if b.state == StateHealthy {
		b.ready = true
	}
}

// recordShed notes a 429: the backend is alive and talking, just loaded —
// it clears the failure streak without counting as a success.
func (b *backend) recordShed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sheds++
	b.consecFails = 0
}

// recordResponsive notes a terminal 4xx/504 verdict: the backend answered
// about the request itself, so it is alive and the failure streak clears,
// but nothing was routed, failed or shed.
func (b *backend) recordResponsive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
}

// recordNotReady notes a 503 on the request path — passive drain
// detection. The backend is routed around until a probe sees it ready
// again; deliberate drain is not an outlier, so no failure accrues.
func (b *backend) recordNotReady() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ready = false
}

// recordFailure counts one 5xx/connect failure toward ejection, returning
// true when this failure tripped the ejection threshold.
func (b *backend) recordFailure(errStr string, cfg Config, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.lastErr = errStr
	if b.state != StateHealthy {
		return false
	}
	b.consecFails++
	if b.consecFails < cfg.EjectThreshold {
		return false
	}
	b.ejectLocked(cfg, now)
	return true
}

// ejectLocked moves the backend to StateEjected and schedules its first
// readmission probe with the per-trip exponential cooldown (guard.Backoff,
// the schedule the guard breakers use).
func (b *backend) ejectLocked(cfg Config, now time.Time) {
	b.state = StateEjected
	b.ready = false
	b.trips++
	b.readmitAt = now.Add(guard.Backoff(cfg.ReadmitBase, b.trips))
}

// probeDue reports whether the prober should probe this backend now: a
// healthy backend is probed every tick, an ejected one only once its
// cooldown expired.
func (b *backend) probeDue(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == StateHealthy || !now.Before(b.readmitAt)
}

// probeOK applies a 200 readiness verdict, returning true when it
// readmitted an ejected backend.
func (b *backend) probeOK() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	readmitted := b.state == StateEjected
	b.state = StateHealthy
	b.ready = true
	b.consecFails = 0
	b.lastErr = ""
	return readmitted
}

// probeNotReady applies a 503 readiness verdict: the backend is alive but
// draining. Healthy backends just lose readiness; an ejected backend stays
// ejected but is re-probed next tick (it is responsive, so no extra
// backoff accrues).
func (b *backend) probeNotReady(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ready = false
	if b.state == StateEjected {
		b.readmitAt = now
	}
}

// probeFail applies a failed probe (connect error or unexpected status):
// it counts toward ejection on a healthy backend, and doubles the
// readmission cooldown on an ejected one. Returns true when the failure
// ejected a healthy backend.
func (b *backend) probeFail(errStr string, cfg Config, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastErr = errStr
	if b.state == StateEjected {
		b.trips++
		b.readmitAt = now.Add(guard.Backoff(cfg.ReadmitBase, b.trips))
		return false
	}
	b.ready = false
	b.consecFails++
	if b.consecFails < cfg.EjectThreshold {
		return false
	}
	b.ejectLocked(cfg, now)
	return true
}
