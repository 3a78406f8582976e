// Command genblocks writes blocks_gen.go, the Go compute kernels' register
// blocks, from the one template below. Run it from internal/kernels:
//
//	go generate ./internal/kernels
//
// It emits, generic over kernels.Float, one fixed-size block function per
// shape the sweeps call, for the NN layout (B(k, j) = b[k*ldb+j]) and the NT
// layout (B(k, j) = bT[j*ldbT+k]), and the two sweeps, Micro and MicroNT,
// that split any mr×nr tile into blockRows×blockCols blocks plus their row
// and column remainders. Every block keeps its accumulators in scalar
// locals and sums each C element in k order, so every tile gives the bits
// of the plain i-j-k loop.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
	"text/template"
)

// blockRows×blockCols is the register block: Eq. 1 (§5.2) applied to the
// machine that runs the Go kernels rather than to NEON, with scalar lanes
// (j = 1) and the 15 XMM registers Go's amd64 ABIInternal leaves allocatable
// (X15 is its fixed zero register). A block holds mr broadcast A values, nr
// B values and mr·nr accumulators, so Eq. 1 reads mr + nr + mr·nr ≤ 15,
// analytic.Feasible(mr, nr, 1, 15): 4×2 and 2×4 need 14 registers and 3×3
// (Eq. 2's highest CMR) 15; 4×3 (19) and 4×4 (24) spill. Measurement picks
// among the feasible shapes. perfbench `small`, 8 s, untraced, gflops on a
// 2-vCPU Xeon with go1.24.0, seeds 3–5: 4×2 3.92–4.60, 2×4 3.74–4.19, 3×3
// 3.75–3.93, 4×3 3.36–3.67, 4×4 3.13–3.42 (the 7×12/7×6 kernels: 1.60–1.85);
// seeds 6–8: 4×2 4.17–4.53 against 2×4 3.92–4.03.
const (
	blockRows = 4
	blockCols = 2
)

// outFile is the generated file, relative to internal/kernels.
const outFile = "blocks_gen.go"

func main() {
	log.SetFlags(0)
	log.SetPrefix("genblocks: ")
	src, err := generate()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(outFile, src, 0o644); err != nil {
		log.Fatal(err)
	}
}

// layout is one way the kernels address B.
type layout struct {
	Sweep string // the exported sweep: Micro or MicroNT
	Tag   string // block name infix: NN or NT
	B     string // B's parameter name
	LDB   string // B's leading-dimension parameter name
	NT    bool   // B(k, j) = B[j*LDB+k] rather than B[k*LDB+j]
	Doc   string // the sweep's doc comment, without the comment markers
}

var layouts = []layout{
	{Sweep: "Micro", Tag: "NN", B: "b", LDB: "ldb", Doc: `Micro computes the mr×nr tile

	c[i*ldc+j] = alpha * Σ_k a[i*lda+k]·b[k*ldb+j] + beta*c[i*ldc+j]

for 0 ≤ i < mr, 0 ≤ j < nr, 0 ≤ k < kc. Both operands are addressed
row-major through explicit leading dimensions, which covers an unpacked A
sliver (lda = the matrix stride), a packed A sliver (lda = kc), an unpacked
B block (ldb = the matrix stride) and the baselines' row-major packed B
panel (ldb = its width). beta == 0 overwrites C without reading it. The
tile runs as register blocks and their row and column remainders; each
block accumulates in T, k-innermost, matching the lane-wise semantics of
the virtual-NEON kernels, so every C element gets the bits of the plain
i-j-k loop.`},
	{Sweep: "MicroNT", Tag: "NT", B: "bT", LDB: "ldbT", NT: true, Doc: `MicroNT computes an mr×nr tile under the NT data layout: bT is the
transposed operand as stored (N×K row-major), so element B(k, j) of the
logical K×N operand is bT[j*ldbT + k]. The packed B sliver has this layout
with ldbT = kc, so MicroNT runs every tile that reads it (MicroPacked). It
runs the same blocks as Micro, each an inner product per C element in k
order.`},
}

// block is one fixed-size R×C block of one layout. The full
// blockRows×blockCols block also stands for its layout's sweep.
type block struct {
	layout
	R, C int
}

// Name is the block function's name, e.g. blockNN4x2.
func (b block) Name() string { return fmt.Sprintf("block%s%dx%d", b.Tag, b.R, b.C) }

// Block returns the q×r block of the same layout.
func (b block) Block(q, r int) block { return block{b.layout, q, r} }

// Blocks lists every shape the sweep over b calls: b itself, its column
// remainders, its row remainders and their corners.
func (b block) Blocks() []block {
	var bs []block
	for q := b.R; q >= 1; q-- {
		for r := b.C; r >= 1; r-- {
			bs = append(bs, b.Block(q, r))
		}
	}
	return bs
}

var funcs = template.FuncMap{
	// seq returns 0, 1, ..., n-1.
	"seq": func(n int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		return s
	},
	// remainders returns 1, 2, ..., n-1: the remainder sizes below a block
	// side.
	"remainders": func(n int) []int {
		s := make([]int, 0, n)
		for i := 1; i < n; i++ {
			s = append(s, i)
		}
		return s
	},
	// row renders row i, n elements wide, of slice s with leading dimension
	// ld. The row is cut from its start, then to its length, so its length
	// is exactly n and the compiler proves every index below n.
	"row": func(s string, i int, ld string, n any) string {
		switch i {
		case 0:
			return fmt.Sprintf("%s[:%v]", s, n)
		case 1:
			return fmt.Sprintf("%s[%s:][:%v]", s, ld, n)
		}
		return fmt.Sprintf("%s[%d*%s:][:%v]", s, i, ld, n)
	},
	// doc renders s as a line comment.
	"doc": func(s string) string {
		lines := strings.Split(s, "\n")
		for i, l := range lines {
			switch {
			case l == "":
				lines[i] = "//"
			case strings.HasPrefix(l, "\t"):
				lines[i] = "//" + l
			default:
				lines[i] = "// " + l
			}
		}
		return strings.Join(lines, "\n")
	},
}

// tmpl is the whole generated file. The column loop ("cols") is shared by
// the full-height rows and the row remainder, so one sweep covers every
// mr×nr.
var tmpl = template.Must(template.New("blocks").Funcs(funcs).Parse(`// Code generated by "go run ./genblocks"; DO NOT EDIT.

package kernels

{{range $s := .}}
{{doc .Doc}}
//
//shalom:hotpath noalloc,nolock,noblock,notime
func {{.Sweep}}[T Float](mr, nr, kc int, alpha T, a []T, lda int, {{.B}} []T, {{.LDB}} int, beta T, c []T, ldc int) {
	i := 0
	for ; i+{{.R}} <= mr; i += {{.R}} {
		{{template "cols" .}}
	}
	{{- if gt .R 1}}
	switch mr - i {
	{{- range $q := remainders .R}}
	case {{$q}}:
		{{template "cols" ($s.Block $q $s.C)}}
	{{- end}}
	}
	{{- end}}
}
{{end}}

{{range .}}{{range .Blocks}}
// {{.Name}} computes the {{.R}}×{{.C}} block at the head of a, {{.B}} and c.
func {{.Name}}[T Float](kc int, alpha T, a []T, lda int, {{.B}} []T, {{.LDB}} int, beta T, c []T, ldc int) {
	{{- $b := .}}
	{{- range $i := seq .R}}
	a{{$i}} := {{row "a" $i "lda" "kc"}}
	{{- end}}
	{{- if .NT}}{{range $j := seq .C}}
	b{{$j}} := {{row "bT" $j "ldbT" "kc"}}
	{{- end}}{{end}}
	var {{range $i := seq .R}}{{range $j := seq $b.C}}{{if or $i $j}}, {{end}}c{{$i}}{{$j}}{{end}}{{end}} T
	{{- if not .NT}}
	{{- /* NN walks B by a running offset and loads its pair by index: no
	       multiply, and no slice (with its mask) per k step. */}}
	off := 0
	{{- end}}
	for k := range a0 {
		{{- range $i := seq .R}}
		x{{$i}} := a{{$i}}[k]
		{{- end}}
		{{- if .NT}}{{range $j := seq .C}}
		y{{$j}} := b{{$j}}[k]
		{{- end}}{{else}}
		{{- range $j := seq .C}}
		y{{$j}} := b[off{{if $j}}+{{$j}}{{end}}]
		{{- end}}
		off += ldb
		{{- end}}
		{{- range $i := seq .R}}{{range $j := seq $b.C}}
		c{{$i}}{{$j}} += x{{$i}} * y{{$j}}
		{{- end}}{{end}}
	}
	{{- range $i := seq .R}}
	cr{{$i}} := {{row "c" $i "ldc" $b.C}}
	{{- end}}
	if beta == 0 {
		{{- range $i := seq .R}}{{range $j := seq $b.C}}
		cr{{$i}}[{{$j}}] = alpha * c{{$i}}{{$j}}
		{{- end}}{{end}}
	} else {
		{{- range $i := seq .R}}{{range $j := seq $b.C}}
		cr{{$i}}[{{$j}}] = alpha*c{{$i}}{{$j}} + beta*cr{{$i}}[{{$j}}]
		{{- end}}{{end}}
	}
}
{{end}}{{end}}

{{define "cols" -}}
ai, ci := a[i*lda:], c[i*ldc:]
		j := 0
		for ; j+{{.C}} <= nr; j += {{.C}} {
			{{.Name}}(kc, alpha, ai, lda, {{template "bcol" .}}, {{.LDB}}, beta, ci[j:], ldc)
		}
		switch nr - j {
		{{- range $r := remainders .C}}
		case {{$r}}:
			{{($.Block $.R $r).Name}}(kc, alpha, ai, lda, {{template "bcol" $}}, {{$.LDB}}, beta, ci[j:], ldc)
		{{- end}}
		}
{{- end}}

{{define "bcol"}}{{if .NT}}bT[j*ldbT:]{{else}}b[j:]{{end}}{{end}}
`))

// generate renders and formats the file.
func generate() ([]byte, error) {
	var sweeps []block
	for _, l := range layouts {
		sweeps = append(sweeps, block{l, blockRows, blockCols})
	}
	var buf bytes.Buffer
	if err := tmpl.Execute(&buf, sweeps); err != nil {
		return nil, err
	}
	return format.Source(buf.Bytes())
}
