package telemetry

// ShapeClass buckets a GEMM problem into the paper's workload regimes so
// per-shape metrics stay low-cardinality: "small" is the §7.2 small-GEMM
// regime (every dimension ≤ 128, the SeisSol/NekBox sizes), "irregular" the
// §6 regime (one C dimension much larger than the other), "large" the
// conventionally BLAS-friendly regime, and "tiny"/"medium"/"empty" the
// remainder. The driver's §7.4 thread policy reads the class: irregular and
// large problems fork, the rest run single-threaded.
type ShapeClass uint8

// Shape classes, densest first.
const (
	ShapeEmpty ShapeClass = iota
	ShapeTiny
	ShapeSmall
	ShapeMedium
	ShapeLarge
	ShapeIrregular
	numShapeClasses
)

var shapeClassNames = [numShapeClasses]string{
	"empty", "tiny", "small", "medium", "large", "irregular",
}

// String names the class as exposed in metric labels.
func (c ShapeClass) String() string {
	if c < numShapeClasses {
		return shapeClassNames[c]
	}
	return "unknown"
}

// ShapeClasses lists every class in label order.
func ShapeClasses() []ShapeClass {
	out := make([]ShapeClass, numShapeClasses)
	for i := range out {
		out[i] = ShapeClass(i)
	}
	return out
}

// RepresentativeShape returns the M×N×K problem the attribution engine
// models a class with: a central member of the regime, chosen so
// ClassifyShape maps it back to the class (attrib tests pin the round
// trip). Model predictions are per class, not per shape, so the exact
// member only needs to be typical, not optimal.
func RepresentativeShape(c ShapeClass) (m, n, k int) {
	switch c {
	case ShapeTiny:
		return 12, 12, 12
	case ShapeSmall:
		return 64, 64, 64 // the §7.2 SeisSol/NekBox regime centre
	case ShapeMedium:
		return 192, 192, 192
	case ShapeLarge:
		return 512, 512, 512
	case ShapeIrregular:
		return 64, 2048, 256 // §6: one C dimension much larger
	default:
		return 0, 0, 0
	}
}

// ClassifyShape assigns an M×N×K problem to its class. Pure arithmetic —
// safe on the telemetry-off hot path.
func ClassifyShape(m, n, k int) ShapeClass {
	switch {
	case m <= 0 || n <= 0 || k <= 0:
		return ShapeEmpty
	case m <= 16 && n <= 16 && k <= 16:
		return ShapeTiny
	case m <= 128 && n <= 128 && k <= 128:
		return ShapeSmall
	case (m >= 8*n || n >= 8*m) && (m >= 512 || n >= 512):
		return ShapeIrregular
	case m >= 256 && n >= 256:
		return ShapeLarge
	default:
		return ShapeMedium
	}
}
