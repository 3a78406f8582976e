// Command shalom-vet runs the libshalom static analyzers: hotpath
// (annotation-driven allocation/lock/block/clock freedom on GEMM hot
// paths), telemetrypure (nil-receiver guard discipline on the write
// methods of the nil-disableable types: telemetry Recorder and metric
// handles, journal Writer, attribution and autotune engines), ctxflow (no context
// minting in library code), and
// atomicdiscipline (no mixed atomic/plain field access, 32-bit
// alignment safety).
//
// Usage:
//
//	shalom-vet [-analyzers a,b] [packages]
//
// Exit codes: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"os"

	"libshalom/internal/staticlint"
)

func main() {
	os.Exit(staticlint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
