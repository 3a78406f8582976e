// Package hotbad is a staticlint fixture: every annotated function below
// violates the class it claims, one way per function, at a known line.
package hotbad

import (
	"sync"
	"time"
)

var mu sync.Mutex

//shalom:hotpath noalloc
func Alloc(n int) []int {
	return make([]int, n) // line 14: builtin make
}

//shalom:hotpath noalloc
func Boxes(v int) any {
	return v // line 19: interface boxing on return
}

//shalom:hotpath nolock
func Locks() {
	mu.Lock() // line 24: mutex acquisition
	mu.Unlock()
}

//shalom:hotpath noblock
func Blocks(c chan int) int {
	return <-c // line 30: channel receive
}

//shalom:hotpath notime
func Clock() int64 {
	return time.Now().UnixNano() // line 35: clock read
}

//shalom:hotpath noalloc
func Transitive(n int) []int {
	return helper(n) // clean itself; helper allocates
}

func helper(n int) []int {
	return make([]int, n) // line 44: flagged via Transitive's annotation
}

//shalom:hotpath noalloc
func Allowed(n int) []int {
	//shalom:allow hotpath -- fixture: amortized growth, measured cold path
	return make([]int, n) // suppressed by the allow above
}

//shalom:hotpath noalloc
func Generic(n int) []float64 {
	return grow[float64](n) // clean itself; grow allocates
}

func grow[T ~float32 | ~float64](n int) []T {
	return make([]T, n) // line 59: flagged via Generic's annotation
}

var fns = []func(int) []int{helper}

//shalom:hotpath noalloc
func FromSlice(n int) []int {
	return fns[0](n) // line 66: a func value from a slice stays dynamic
}

//shalom:hotpath noalloc
func BoxGeneric[T ~float32 | ~float64](v T) any {
	return v // line 71: a type-parameter value boxed into an interface
}
