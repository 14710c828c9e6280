// Package kerneltest holds what the tests of the AVX2 kernels share:
// the operands a kernel must carry exactly and the bit comparison
// against its Go twin. Only test files import it.
package kerneltest

import (
	"flag"
	"math"
	"math/rand"
)

// Specials are operands a kernel must carry exactly: NaNs with distinct
// payloads and signs (a signalling one among them), ±Inf, ±0,
// subnormals and the extremes of the normal range.
var Specials = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000123), math.Float64frombits(0x7ff4000000000abc),
	math.Float64frombits(0x7ff8dead00000001), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 0x1p-1022, -0x1.8p-1030, math.MaxFloat64, -math.MaxFloat64,
	1e300, -1e-300, 1, -1, 0.5,
}

// Value draws one operand: a special, a random value at an exponent
// anywhere in the float64 range, or an ordinary one in [−2, 2].
func Value(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return Specials[rng.Intn(len(Specials))]
	case 1:
		return math.Ldexp(2*rng.Float64()-1, rng.Intn(2098)-1074)
	default:
		return 4*rng.Float64() - 2
	}
}

// ByteValue maps a fuzzed byte to an operand the same way: a special, a
// scaled value or an ordinary one.
func ByteValue(b byte) float64 {
	switch {
	case b >= 200:
		return Specials[int(b-200)%len(Specials)]
	case b >= 100:
		return math.Ldexp(float64(b)-150, int(b)*20-3000)
	default:
		return float64(b)/25 - 2
	}
}

// raceBuild is set in a race-detector build (race.go).
var raceBuild bool

// NaNPinned says whether a NaN result must match the Go twin's bit for
// bit. When both operands of an x86 operation are NaN the result is the
// first source's, and which operand of a commutative operation comes
// first is the Go code generator's choice. The kernels copy the choice
// of the default build. A race-detector build and a fuzzing run's
// coverage-instrumented build compile the twins with other operand
// orders, so there a NaN needs only a NaN; the plain go test replays
// the fuzz seeds and corpus pinned.
func NaNPinned() bool {
	f := flag.Lookup("test.fuzz")
	return !raceBuild && (f == nil || f.Value.String() == "")
}

// SameBits says whether a kernel's a matches its Go twin's b: the same
// bits, or two NaNs where NaNPinned is false.
func SameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b) && !NaNPinned()
}

// SameBitsC is SameBits on both parts of a complex.
func SameBitsC(a, b complex128) bool {
	return SameBits(real(a), real(b)) && SameBits(imag(a), imag(b))
}

// Complex draws a complex operand of two Value parts.
func Complex(rng *rand.Rand) complex128 { return complex(Value(rng), Value(rng)) }
