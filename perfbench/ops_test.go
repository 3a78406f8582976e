package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// opSequence renders the first rounds of one client's op sequence for a
// seed: each op's shape, mode and precision with a digest of its operand
// values and α.
func opSequence(t *testing.T, specs []spec, seed uint64, client int) []string {
	t.Helper()
	ops, err := buildOps(specs, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	seq := newSequence(seed, client, len(ops))
	var out []string
	for i := 0; i < 3*len(ops); i++ {
		o := ops[seq.next()]
		h := sha256.New()
		_ = binary.Write(h, binary.LittleEndian, o.alpha)
		_ = binary.Write(h, binary.LittleEndian, o.a32)
		_ = binary.Write(h, binary.LittleEndian, o.b32)
		_ = binary.Write(h, binary.LittleEndian, o.a64)
		_ = binary.Write(h, binary.LittleEndian, o.b64)
		h.Write(o.body)
		out = append(out, fmt.Sprintf("%s %x", o.spec, h.Sum(nil)[:8]))
	}
	return out
}

func TestSeedFixesOpSequence(t *testing.T) {
	for _, mix := range []struct {
		name  string
		specs []spec
	}{{"small", smallMix()}, {"tiny", tinyMix()}} {
		for client := 0; client < 2; client++ {
			a := opSequence(t, mix.specs, 11, client)
			b := opSequence(t, mix.specs, 11, client)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s client %d: seed 11 gave %q then %q at op %d", mix.name, client, a[i], b[i], i)
				}
			}
			c := opSequence(t, mix.specs, 12, client)
			same := 0
			for i := range a {
				if a[i] == c[i] {
					same++
				}
			}
			if same == len(a) {
				t.Fatalf("%s client %d: seeds 11 and 12 gave the same sequence", mix.name, client)
			}
			if same > len(a)/4 {
				t.Errorf("%s client %d: seeds 11 and 12 share %d of %d ops", mix.name, client, same, len(a))
			}
		}
		// Clients of one seed run different orders over the same ops.
		if fmt.Sprint(opSequence(t, mix.specs, 11, 0)) == fmt.Sprint(opSequence(t, mix.specs, 11, 1)) && len(mix.specs) > 1 {
			t.Errorf("%s: clients 0 and 1 share one order", mix.name)
		}
	}
}

func TestSequenceRoundsCoverTheMix(t *testing.T) {
	seq := newSequence(5, 0, 7)
	for round := 0; round < 4; round++ {
		seen := map[int]bool{}
		for i := 0; i < 7; i++ {
			seen[seq.next()] = true
		}
		if len(seen) != 7 {
			t.Fatalf("round %d covered %d of 7 ops", round, len(seen))
		}
	}
}

func TestErrorBoundAcceptsReferenceRejectsErrors(t *testing.T) {
	ops, err := buildOps(smallMix(), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		c32 := append([]float32(nil), o.ref32...)
		c64 := append([]float64(nil), o.ref64...)
		if !o.correct(c32, c64) {
			t.Fatalf("%s: the reference fails its own bound", o.spec)
		}
		i := len(o.bound) / 2
		if o.f64 {
			c64[i] += 4 * o.bound[i]
		} else {
			c32[i] += float32(4 * o.bound[i])
		}
		if o.correct(c32, c64) {
			t.Fatalf("%s: an error of 4× the bound passed", o.spec)
		}
		if o.f64 {
			c64[i] = math.NaN()
		} else {
			c32[i] = float32(math.NaN())
		}
		if o.correct(c32, c64) {
			t.Fatalf("%s: NaN passed", o.spec)
		}
	}
}

func TestLibraryMatchesReferenceWithinBound(t *testing.T) {
	w, _ := workloadByName("small")
	e, err := setup(w, 9, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if e.warm.failed != 0 || e.warm.attempted != len(e.ops) {
		t.Fatalf("warm-up: %d of %d ops failed: %v", e.warm.failed, e.warm.attempted, e.warm.firstErr)
	}
}
