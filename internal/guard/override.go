// Tuned dispatch overrides: the autotuner's hot-swap mechanism. A promoted
// candidate is not a new code path — the portable micro-kernels accept any
// (mr, nr, kc) — so an override is just a tile the driver substitutes for
// the analytic solution on one (element size, shape class) key, behind its
// own circuit breaker. The override table is an immutable value swapped
// through an atomic pointer, so the per-call lookup on the GEMM hot path is
// one atomic load and two array indexes: no lock, no allocation, no map.
//
// Every override carries its own breaker path (distinct from the kernel
// family's PathF32/PathF64), minted per installation, so a misbehaving
// candidate trips and reverts alone: the family path — and with it every
// other class — keeps serving on the fast path. A trip on a tuned path
// atomically removes the override, restoring the incumbent tile, and the
// recorded Degradation names the tuned kernel identity and tile so the
// demotion history says exactly which candidate was evicted and why.
package guard

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// TileOverride is one tuned dispatch override: the register tile and panel
// depth to substitute for the analytic solution on its (element, class) key.
type TileOverride struct {
	// MR, NR are the register tile; KC overrides the analytic panel depth
	// when positive (zero keeps the platform blocking solution's KC).
	MR, NR, KC int
	// Kernel is the tuned kernel identity (e.g. "tuned-5x16-kc8-pipelined"),
	// recorded in the demotion history when the candidate is evicted.
	Kernel string
	// Path is the override's private breaker path, minted at install time
	// (e.g. "gemm-f32/tuned/small#3") so the hot path never formats strings
	// and a re-tried class gets a fresh breaker with no inherited backoff.
	Path string
}

// overrideElems and overrideClasses bound the override table: element index
// 0 is FP32, 1 is FP64; class indexes mirror telemetry.ShapeClass (6 classes
// today, capacity 8 so a new class is not a resize).
const (
	overrideElems   = 2
	overrideClasses = 8
)

// overrideTable is the immutable value behind the atomic pointer.
type overrideTable struct {
	present [overrideElems][overrideClasses]bool
	ov      [overrideElems][overrideClasses]TileOverride
}

var (
	// ovMu serializes writers (install/reset/trip-evict); readers never
	// take it.
	ovMu      sync.Mutex
	overrides atomic.Pointer[overrideTable]
	// overrideGen mints unique breaker paths across installations.
	overrideGen atomic.Uint64
)

// elemIndex maps an element size in bytes to its table row, or -1.
func elemIndex(elemBytes int) int {
	switch elemBytes {
	case 4:
		return 0
	case 8:
		return 1
	}
	return -1
}

// OverrideFor returns the tuned dispatch override for an (element size,
// shape class) key, if one is installed. This is the hot-path lookup: one
// atomic load and two array indexes.
//
//shalom:hotpath noalloc,nolock,noblock
func OverrideFor(elemBytes int, class uint8) (TileOverride, bool) {
	t := overrides.Load()
	if t == nil {
		return TileOverride{}, false
	}
	e := elemIndex(elemBytes)
	if e < 0 || int(class) >= overrideClasses || !t.present[e][class] {
		return TileOverride{}, false
	}
	return t.ov[e][class], true
}

// MintOverridePath builds a fresh breaker path for a tuned candidate on an
// (element size, shape class) key. Each call returns a new path, so every
// installation probes a clean breaker with no inherited trip backoff.
func MintOverridePath(elemBytes int, class string) string {
	return fmt.Sprintf("%s/tuned/%s#%d", PathFor(elemBytes), class, overrideGen.Add(1))
}

// SetOverride installs (or replaces) the tuned override for an (element
// size, shape class) key. The override's Path must be non-empty — it is the
// breaker identity trips revert through. Returns false for an out-of-range
// key.
func SetOverride(elemBytes int, class uint8, ov TileOverride) bool {
	e := elemIndex(elemBytes)
	if e < 0 || int(class) >= overrideClasses || ov.Path == "" {
		return false
	}
	ovMu.Lock()
	defer ovMu.Unlock()
	next := cloneOverrides()
	next.present[e][class] = true
	next.ov[e][class] = ov
	overrides.Store(next)
	return true
}

// Overrides returns the installed overrides (a snapshot copy).
func Overrides() []TileOverride {
	t := overrides.Load()
	if t == nil {
		return nil
	}
	var out []TileOverride
	for e := 0; e < overrideElems; e++ {
		for c := 0; c < overrideClasses; c++ {
			if t.present[e][c] {
				out = append(out, t.ov[e][c])
			}
		}
	}
	return out
}

// ResetOverrides clears the whole override table (tests and operator reset).
func ResetOverrides() {
	ovMu.Lock()
	overrides.Store(nil)
	ovMu.Unlock()
}

// cloneOverrides copies the current table for a copy-on-write update.
// Callers hold ovMu.
func cloneOverrides() *overrideTable {
	next := &overrideTable{}
	if t := overrides.Load(); t != nil {
		*next = *t
	}
	return next
}

// takeOverrideByPath removes and returns the override whose breaker path is
// path. Called by Trip before recording, so a tripped candidate stops
// serving the moment the breaker opens and the Degradation can carry the
// tuned kernel identity. The table holds at most 16 entries; the scan is
// cheaper than a parallel index.
func takeOverrideByPath(path string) (TileOverride, bool) {
	ovMu.Lock()
	defer ovMu.Unlock()
	t := overrides.Load()
	if t == nil {
		return TileOverride{}, false
	}
	for e := 0; e < overrideElems; e++ {
		for c := 0; c < overrideClasses; c++ {
			if t.present[e][c] && t.ov[e][c].Path == path {
				old := t.ov[e][c]
				next := cloneOverrides()
				next.present[e][c] = false
				next.ov[e][c] = TileOverride{}
				overrides.Store(next)
				return old, true
			}
		}
	}
	return TileOverride{}, false
}

// BeginProbation creates (or re-arms) the breaker for a (platform, kernel)
// pair directly in the probing state without recording a trip: the canary
// gate for a freshly installed tuned candidate, which must prove itself on
// live shadowed traffic before the breaker closes. Returns false when the
// pair is pinned open by a contract demotion (static failures need a code
// change, not a probation).
func BeginProbation(platform, kernel string) bool {
	mu.Lock()
	k := key(platform, kernel)
	br := breakers[k]
	if br == nil {
		br = &breaker{d: Degradation{Platform: platform, Kernel: kernel}}
		breakers[k] = br
	}
	if br.d.State == StateOpen && br.noProbe {
		mu.Unlock()
		return false
	}
	br.d.State = StateProbing
	br.agree, br.probeTick = 0, 0
	mu.Unlock()
	return true
}

// Forget drops the breaker record for a (platform, kernel) pair. Only the
// autotuner uses it, to retire the private breaker of an evicted or
// superseded candidate — generation-counted paths are never reused, so the
// record (and its backoff state) has no future. The trip history is
// untouched.
func Forget(platform, kernel string) {
	mu.Lock()
	delete(breakers, key(platform, kernel))
	mu.Unlock()
}
