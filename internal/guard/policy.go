package guard

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"
)

// Config is the self-healing policy: how long an open breaker cools down,
// what fraction of probing calls run the canary shadow, and how many
// consecutive agreeing canaries prove recovery. The zero value of any field
// selects its default.
type Config struct {
	// Cooldown is the base open→probing cooldown. Each re-trip of the same
	// (platform, kernel) pair doubles the effective cooldown, up to 64×.
	// Default 5s.
	Cooldown time.Duration
	// CanaryTarget is how many consecutive agreeing canaries close a
	// probing breaker. Default 8.
	CanaryTarget int
	// CanaryStride bounds the canary fraction while probing: one of every
	// CanaryStride calls runs the fast path shadowed by the reference path;
	// the rest run the reference path alone. Default 2 (half the probing
	// traffic pays the shadow cost).
	CanaryStride int
}

// Defaults for zero Config fields.
const (
	DefaultCooldown     = 5 * time.Second
	DefaultCanaryTarget = 8
	DefaultCanaryStride = 2
)

var (
	cfgMu sync.Mutex
	cfg   = Config{}
)

// normalized returns c with zero fields replaced by defaults.
func (c Config) normalized() Config {
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultCooldown
	}
	if c.CanaryTarget <= 0 {
		c.CanaryTarget = DefaultCanaryTarget
	}
	if c.CanaryStride <= 0 {
		c.CanaryStride = DefaultCanaryStride
	}
	return c
}

// Configure installs a new healing policy and returns the previous one.
// Zero fields of c select their documented defaults. The policy is
// process-global, like the breaker registry it governs.
func Configure(c Config) Config {
	cfgMu.Lock()
	defer cfgMu.Unlock()
	prev := cfg.normalized()
	cfg = c.normalized()
	return prev
}

// Current returns the active healing policy with defaults resolved.
func Current() Config {
	cfgMu.Lock()
	defer cfgMu.Unlock()
	return cfg.normalized()
}

// Tolerance is the canary comparison tolerance for an element size: the
// same order as the numeric accuracy the test suite holds the fast path to
// against the reference implementation.
func Tolerance(elemBytes int) float64 {
	if elemBytes == 8 {
		return 1e-10
	}
	return 1e-4
}

// Agrees compares an m×n fast-path result (leading dimension ldGot) against
// the reference shadow (leading dimension ldWant) element-wise under a
// relative tolerance: |got-want| ≤ tol·(1+|want|). NaN or Inf on one side
// only is a disagreement; matching non-finite values (legitimate IEEE
// propagation from non-finite inputs) agree.
func Agrees[T ~float32 | ~float64](got []T, ldGot int, want []T, ldWant, m, n int, tol float64) bool {
	for i := 0; i < m; i++ {
		gr := got[i*ldGot : i*ldGot+n]
		wr := want[i*ldWant : i*ldWant+n]
		for j := 0; j < n; j++ {
			g, w := float64(gr[j]), float64(wr[j])
			if g == w { // covers matching ±Inf and exact agreement
				continue
			}
			if g != g && w != w { // both NaN: legitimate propagation
				continue
			}
			// Any other non-finite pairing — NaN on one side, Inf against a
			// finite value, or ±Inf with flipped signs — is a disagreement;
			// the relative test below would let Inf-vs-Inf slip through
			// (Inf <= Inf holds).
			if !isFinite(g) || !isFinite(w) {
				return false
			}
			diff := g - w
			if diff < 0 {
				diff = -diff
			}
			lim := w
			if lim < 0 {
				lim = -lim
			}
			if diff > tol*(1+lim) {
				return false
			}
		}
	}
	return true
}

// isFinite reports whether f is neither NaN nor ±Inf.
func isFinite(f float64) bool { return f-f == 0 }

// Report is a point-in-time health view of the self-healing runtime: the
// active policy, every breaker record (including healed pairs, whose trip
// count still drives backoff), and the full trip history.
type Report struct {
	Config   Config        `json:"config"`
	Breakers []Degradation `json:"breakers,omitempty"`
	History  []Degradation `json:"history,omitempty"`
}

// Health assembles the health report.
func Health() Report {
	return Report{
		Config:   Current(),
		Breakers: Breakers(),
		History:  History(),
	}
}

// Healthy reports whether no breaker is currently open or probing.
func (r Report) Healthy() bool {
	for _, b := range r.Breakers {
		if b.State != StateHealthy {
			return false
		}
	}
	return true
}

// Write renders the report as the human-readable health summary that
// `shalom-bench info` ends with.
func (r Report) Write(w io.Writer) {
	fmt.Fprintf(w, "healing policy: cooldown %v (doubles per trip), close after %d agreeing canaries, 1-in-%d canary sampling\n",
		r.Config.Cooldown, r.Config.CanaryTarget, r.Config.CanaryStride)
	if len(r.Breakers) == 0 {
		fmt.Fprintln(w, "breakers: none tripped — every kernel path healthy on the fast path")
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "platform\tkernel path\tstate\ttrips\tlast opened\treason\tshape\tdetail")
	for _, b := range r.Breakers {
		shape := b.Shape
		if shape == "" {
			shape = "-"
		}
		opened := "-"
		if !b.ReopenedAt.IsZero() {
			opened = b.ReopenedAt.Format(time.RFC3339)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%s\t%s\t%s\n",
			b.Platform, b.Kernel, b.State, b.Trips, opened, b.Reason, shape, b.Detail)
	}
	tw.Flush()
	if len(r.History) > 0 {
		fmt.Fprintln(w, "trip history (first domino first):")
		for _, d := range r.History {
			fmt.Fprintf(w, "  %s\n", d.String())
		}
	}
}
