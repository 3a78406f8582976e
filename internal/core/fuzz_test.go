package core

import (
	"testing"
)

// FuzzCheckArgs proves the driver's argument validation never panics and
// accepts exactly the calls the driver can execute in-bounds: whenever
// CheckArgs accepts, the maximal element indices the loop nest can touch
// are inside the supplied slices, and whenever the independent validity
// predicate holds, CheckArgs must not reject (no spurious errors).
func FuzzCheckArgs(f *testing.F) {
	f.Add(uint8(0), 7, 12, 8, 8, 12, 12, 56, 96, 84)
	f.Add(uint8(1), 0, 0, 0, 1, 1, 1, 0, 0, 0)
	f.Add(uint8(2), -1, 5, 5, 5, 5, 5, 25, 25, 25)
	f.Add(uint8(3), 5, 5, 5, 0, 5, 5, 25, 25, 25)
	f.Add(uint8(0), 3, 3, 3, 3, 3, 2, 9, 9, 9) // ldc too small
	f.Add(uint8(0), 3, 3, 3, 3, 3, 3, 8, 9, 9) // A short one element
	f.Fuzz(func(t *testing.T, modeRaw uint8, m, n, k, lda, ldb, ldc, lenA, lenB, lenC int) {
		mode := Mode(modeRaw % 4)
		// Bound allocations; dimensional validity is unrestricted.
		clampLen := func(l int) int {
			if l < 0 {
				return 0
			}
			return l % (1 << 16)
		}
		a := make([]float32, clampLen(lenA))
		b := make([]float32, clampLen(lenB))
		c := make([]float32, clampLen(lenC))

		err := CheckArgs(mode, m, n, k, a, lda, b, ldb, c, ldc) // must never panic

		arows, acols := m, k
		if mode.TransA() {
			arows, acols = k, m
		}
		brows, bcols := k, n
		if mode.TransB() {
			brows, bcols = n, k
		}
		valid := m >= 0 && n >= 0 && k >= 0 &&
			lda >= max(1, acols) && ldb >= max(1, bcols) && ldc >= max(1, n) &&
			len(a) >= sliceNeed(arows, acols, lda) &&
			len(b) >= sliceNeed(brows, bcols, ldb) &&
			len(c) >= sliceNeed(m, n, ldc)
		if valid && err != nil {
			t.Fatalf("CheckArgs rejected a valid call: mode=%v m=%d n=%d k=%d lda=%d ldb=%d ldc=%d lens=%d/%d/%d: %v",
				mode, m, n, k, lda, ldb, ldc, len(a), len(b), len(c), err)
		}
		if !valid && err == nil {
			t.Fatalf("CheckArgs accepted an invalid call: mode=%v m=%d n=%d k=%d lda=%d ldb=%d ldc=%d lens=%d/%d/%d",
				mode, m, n, k, lda, ldb, ldc, len(a), len(b), len(c))
		}
		if err != nil {
			return
		}
		// Acceptance implies in-bounds access for the extreme indices of
		// every operand rectangle.
		if arows > 0 && acols > 0 && (arows-1)*lda+acols > len(a) {
			t.Fatalf("accepted A access out of bounds")
		}
		if brows > 0 && bcols > 0 && (brows-1)*ldb+bcols > len(b) {
			t.Fatalf("accepted B access out of bounds")
		}
		if m > 0 && n > 0 && (m-1)*ldc+n > len(c) {
			t.Fatalf("accepted C access out of bounds")
		}
		// And the driver itself must run the accepted call without
		// panicking (small problems only, to keep the fuzz fast).
		if m <= 32 && n <= 32 && k <= 32 {
			if err := SGEMM(testDriver(t, Config{Threads: 1}), mode, m, n, k, 1.5, a, lda, b, ldb, 0.5, c, ldc); err != nil {
				t.Fatalf("driver rejected a validated call: %v", err)
			}
		}
	})
}
