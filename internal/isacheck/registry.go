package isacheck

import (
	"fmt"
	"sort"
	"sync"

	"libshalom/internal/isa"
)

// Entry is one registered kernel: a name, the family it belongs to, the
// contract its generator declares, and a builder producing a fresh program.
// Generators self-register from init functions (internal/kernels,
// internal/baselines), so any binary importing those packages — shalom-bench,
// the tests — sees the full catalogue without a hand-maintained list.
type Entry struct {
	Name     string // unique, e.g. "libshalom/main-7x12-f32"
	Family   string // "libshalom" or "baseline"
	Contract Contract
	Build    func() *isa.Program

	// SymFamily names the generator family (RegisterFamily) this entry is
	// one instance of, and SymShape the shape instantiating it. When set,
	// the runner adds the symbolic footprint pass (#6), which proves the
	// family's panel containment for every shape in its domain — not just
	// this one — and checks that ContractAt(SymShape) agrees with Contract.
	SymFamily string
	SymShape  Shape
}

var (
	regMu    sync.Mutex
	registry = map[string]Entry{}
)

// Register adds a kernel to the catalogue. It panics on a duplicate name, a
// nil builder, or an inconsistent contract — registration happens at init
// time, where a loud failure is the only useful one.
func Register(e Entry) {
	if e.Name == "" || e.Build == nil {
		panic("isacheck: Register needs a name and a builder")
	}
	if err := e.Contract.Validate(); err != nil {
		panic(fmt.Sprintf("isacheck: Register(%s): %v", e.Name, err))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("isacheck: Register(%s): duplicate kernel name", e.Name))
	}
	registry[e.Name] = e
}

// Registered returns the catalogue sorted by name.
func Registered() []Entry {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Entry, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the entry with the given name.
func Lookup(name string) (Entry, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	e, ok := registry[name]
	return e, ok
}
