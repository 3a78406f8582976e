// Package hotclean is a staticlint fixture: fully annotated, fully clean.
package hotclean

//shalom:hotpath noalloc,nolock,noblock,notime
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

//shalom:hotpath noalloc,nolock,noblock,notime
func Scale(dst []float64, alpha float64) {
	for i := range dst {
		dst[i] *= alpha
	}
}

// Axpy is a generic kernel; Axpy32 and Axpy64 reach it through an explicit
// and an inferred instantiation, and the proof follows both.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func Axpy[T ~float32 | ~float64](alpha T, x, y []T) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

//shalom:hotpath noalloc,nolock,noblock,notime
func Axpy32(alpha float32, x, y []float32) {
	Axpy[float32](alpha, x, y)
}

//shalom:hotpath noalloc,nolock,noblock,notime
func Axpy64(alpha float64, x, y []float64) {
	Axpy(alpha, x, y)
}
