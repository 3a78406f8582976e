package staticlint

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

func loadFixture(t *testing.T, pkgs ...string) *Program {
	t.Helper()
	patterns := make([]string, len(pkgs))
	for i, p := range pkgs {
		patterns[i] = "./testdata/src/" + p
	}
	prog, err := Load(Config{Dir: ".", Patterns: patterns})
	if err != nil {
		t.Fatalf("Load(%v): %v", pkgs, err)
	}
	return prog
}

// expectAt asserts some diagnostic of the given analyzer anchors at
// file:line.
func expectAt(t *testing.T, diags []Diagnostic, analyzer, file string, line int) {
	t.Helper()
	for _, d := range diags {
		if d.Analyzer == analyzer && d.Pos.Line == line && strings.HasSuffix(d.Pos.Filename, file) {
			return
		}
	}
	t.Errorf("no %s finding at %s:%d; got:\n%s", analyzer, file, line, renderDiags(diags))
}

func forbidAt(t *testing.T, diags []Diagnostic, file string, line int) {
	t.Helper()
	for _, d := range diags {
		if d.Pos.Line == line && strings.HasSuffix(d.Pos.Filename, file) {
			t.Errorf("unexpected finding at %s:%d: %s", file, line, d.String())
		}
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

func TestHotpathFixture(t *testing.T) {
	prog := loadFixture(t, "hotbad")
	diags := RunAnalyzers(prog, []*Analyzer{Hotpath})
	const f = "hotbad/hotbad.go"
	expectAt(t, diags, "hotpath", f, 14) // make in Alloc
	expectAt(t, diags, "hotpath", f, 19) // boxing return in Boxes
	expectAt(t, diags, "hotpath", f, 24) // mu.Lock in Locks
	expectAt(t, diags, "hotpath", f, 30) // channel receive in Blocks
	expectAt(t, diags, "hotpath", f, 35) // time.Now in Clock
	expectAt(t, diags, "hotpath", f, 44) // make in helper, via Transitive
	forbidAt(t, diags, f, 50)            // //shalom:allow hotpath suppresses

	// The transitive finding names both the callee and the annotated root.
	var transitive bool
	for _, d := range diags {
		if d.Pos.Line == 44 && strings.Contains(d.Message, "helper") &&
			strings.Contains(d.Message, "Transitive") {
			transitive = true
		}
	}
	if !transitive {
		t.Errorf("line 44 finding does not attribute the annotated root:\n%s", renderDiags(diags))
	}

	// An explicit instantiation grow[float64](…) is a static call: the
	// allocation inside the generic callee is reported for Generic.
	var generic bool
	for _, d := range diags {
		if d.Pos.Line == 59 && strings.Contains(d.Message, "grow") && strings.Contains(d.Message, "Generic") {
			generic = true
		}
	}
	if !generic {
		t.Errorf("line 59 finding does not attribute the generic callee's root:\n%s", renderDiags(diags))
	}
	expectAt(t, diags, "hotpath", f, 66) // func value indexed from a slice
	expectAt(t, diags, "hotpath", f, 71) // type-parameter value boxed into any
}

func TestHotpathCleanFixture(t *testing.T) {
	prog := loadFixture(t, "hotclean")
	if diags := RunAnalyzers(prog, All()); len(diags) != 0 {
		t.Errorf("clean fixture produced findings:\n%s", renderDiags(diags))
	}
}

func TestTelemetryPureFixture(t *testing.T) {
	prog := loadFixture(t, "telemetry")
	diags := RunAnalyzers(prog, []*Analyzer{TelemetryPure})
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	joined := strings.Join(got, "\n")
	for _, want := range []string{"Unguarded", "PlainWrite", "HandleWrite", "(*Counter).Add"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing finding for %s:\n%s", want, renderDiags(diags))
		}
	}
	for _, clean := range []string{"Guarded writes", "GuardedDisjunct", "ReadOnly"} {
		if strings.Contains(joined, clean) {
			t.Errorf("false positive on %s:\n%s", clean, renderDiags(diags))
		}
	}
	if len(diags) != 4 {
		t.Errorf("want exactly 4 findings, got %d:\n%s", len(diags), renderDiags(diags))
	}
}

// TestModuleClean runs every analyzer over the whole module, so the
// project's hot-path, nil-guard, context-flow and atomic-discipline proofs
// are checked on the real code by `go test ./...`, not only on fixtures.
func TestModuleClean(t *testing.T) {
	prog, err := Load(Config{Dir: "../..", Patterns: []string{"./..."}})
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	if diags := RunAnalyzers(prog, All()); len(diags) != 0 {
		t.Errorf("shalom-vet findings on the module:\n%s", renderDiags(diags))
	}
}

// TestTelemetryPureJournalFixture covers the analyzer's second target: the
// journal Writer's exported methods carry the same nil-guard discipline,
// while its unexported *Locked helpers (guarded by their exported callers)
// are exempt.
func TestTelemetryPureJournalFixture(t *testing.T) {
	prog := loadFixture(t, "journal")
	diags := RunAnalyzers(prog, []*Analyzer{TelemetryPure})
	const f = "journal/journal.go"
	expectAt(t, diags, "telemetrypure", f, 27) // Unguarded exported writer
	if len(diags) != 1 {
		t.Errorf("want exactly 1 finding (Guarded and appendLocked are clean), got %d:\n%s",
			len(diags), renderDiags(diags))
	}
}

// TestTelemetryPureAttribFixture covers the analyzer's third target: the
// attribution engine's exported methods carry the nil-guard discipline (a
// nil *Engine is "attribution off"), with the same exported-only exemption
// for locked helpers as the journal writer.
func TestTelemetryPureAttribFixture(t *testing.T) {
	prog := loadFixture(t, "attrib")
	diags := RunAnalyzers(prog, []*Analyzer{TelemetryPure})
	const f = "attrib/attrib.go"
	expectAt(t, diags, "telemetrypure", f, 27) // Unguarded exported mutator
	if len(diags) != 1 {
		t.Errorf("want exactly 1 finding (Step, stepLocked and Windows are clean), got %d:\n%s",
			len(diags), renderDiags(diags))
	}
}

func TestCtxFlowFixture(t *testing.T) {
	prog := loadFixture(t, "ctxbad")
	diags := RunAnalyzers(prog, []*Analyzer{CtxFlow})
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 finding (the allow suppresses the other), got %d:\n%s",
			len(diags), renderDiags(diags))
	}
	expectAt(t, diags, "ctxflow", "ctxbad/ctxbad.go", 9)
}

func TestAtomicDisciplineFixture(t *testing.T) {
	prog := loadFixture(t, "atomicbad")
	diags := RunAnalyzers(prog, []*Analyzer{AtomicDiscipline})
	var mixed, misaligned bool
	for _, d := range diags {
		if strings.Contains(d.Message, "plain access") && strings.Contains(d.Message, "hits") {
			mixed = true
		}
		if strings.Contains(d.Message, "not 8-aligned") && strings.Contains(d.Message, "offset 4") {
			misaligned = true
		}
	}
	if !mixed {
		t.Errorf("missing mixed-access finding:\n%s", renderDiags(diags))
	}
	if !misaligned {
		t.Errorf("missing 32-bit alignment finding:\n%s", renderDiags(diags))
	}
}

func TestDiagnosticsSorted(t *testing.T) {
	prog := loadFixture(t, "hotbad", "telemetry", "ctxbad", "atomicbad")
	diags := RunAnalyzers(prog, All())
	if len(diags) < 4 {
		t.Fatalf("expected findings across fixtures, got %d", len(diags))
	}
	sorted := sort.SliceIsSorted(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column <= b.Pos.Column
	})
	if !sorted {
		t.Errorf("diagnostics not sorted:\n%s", renderDiags(diags))
	}
}

func TestMainExitCodes(t *testing.T) {
	run := func(args ...string) (int, string, string) {
		var out, errb bytes.Buffer
		code := Main(args, &out, &errb)
		return code, out.String(), errb.String()
	}

	if code, out, _ := run("-dir", ".", "./testdata/src/hotclean"); code != ExitClean || out != "" {
		t.Errorf("clean fixture: code %d, out %q", code, out)
	}
	code, out, errb := run("-dir", ".", "./testdata/src/hotbad")
	if code != ExitFindings {
		t.Errorf("hotbad fixture: code %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "hotpath:") || !strings.Contains(out, "hotbad.go:14") {
		t.Errorf("hotbad output missing expected findings:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !sort.StringsAreSorted(lines) {
		t.Errorf("output lines not sorted:\n%s", out)
	}

	if code, _, _ := run("-nosuchflag"); code != ExitUsage {
		t.Errorf("bad flag: code %d", code)
	}
	if code, _, _ := run("-analyzers", "nosuch", "-dir", ".", "./testdata/src/hotclean"); code != ExitUsage {
		t.Errorf("unknown analyzer: code %d", code)
	}
	if code, _, _ := run("-dir", ".", "./testdata/src/doesnotexist"); code != ExitUsage {
		t.Errorf("unloadable pattern: code %d", code)
	}
	if code, out, _ := run("-list"); code != ExitClean || !strings.Contains(out, "hotpath") {
		t.Errorf("-list: code %d, out %q", code, out)
	}

	// Analyzer subsetting: only ctxflow runs, so hotbad's hotpath findings
	// vanish while ctxbad's remain.
	if code, out, _ := run("-analyzers", "ctxflow", "-dir", ".", "./testdata/src/hotbad"); code != ExitClean || out != "" {
		t.Errorf("-analyzers ctxflow on hotbad: code %d, out %q", code, out)
	}
}
