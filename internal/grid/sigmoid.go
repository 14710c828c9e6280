package grid

import (
	"math"
	"math/big"

	"lsopc/internal/obs"
)

// The resist sigmoid runs once per pixel and corner every iteration, so
// its exp is written inline rather than called: a call to math.Exp in
// the loop would make the compiler spill the loop's live values around
// it, and an inline exp is what the AVX2 kernel (sigmoid_amd64.s) runs
// four lanes at a time.
//
// exp(z) = 2^(k/N) · exp(r) with N = 2^expBits, k = round(z·N/ln 2) and
// r = z − k·ln2/N, |r| ≤ ln2/(2N). 2^(k/N) is a table entry times a
// power of two; exp(r) is its degree-5 Taylor polynomial, whose
// truncation error (r⁶/720 ≈ 5e-19) is far below one ulp. The
// reduction and the polynomial use math.FMA, which rounds exactly once
// with or without a hardware FMA, and every other product is rounded by
// an explicit conversion, so the results do not depend on the CPU or on
// the compiler fusing operations. The assembly runs the same operations
// with one rounding each, so both kernels give the same bits.
const (
	expBits  = 7
	expN     = 1 << expBits
	expShift = 0x1.8p52 // adding it rounds a |v| < 2^51 to an integer
	invLn2N  = expN / math.Ln2
	ln2N     = math.Ln2 / expN
	ln2HiN   = 0x1.62e42fefa39efp-8 // float64(ln2N)
	ln2LoN   = ln2N - ln2HiN
	// expFast bounds the arguments the table form handles: 2^(k/N)
	// stays a normal float64. Beyond it, and for NaN, σ is computed by
	// math.Exp (where it saturates to 0 or 1 anyway).
	expFast = 708
)

// expTable holds 2^(j/N) for j in [0, N), each correctly rounded: the
// powers are formed at 256-bit precision and rounded once.
var expTable = func() (t [expN]float64) {
	step := new(big.Float).SetPrec(256).SetInt64(2)
	for i := 0; i < expBits; i++ {
		step.Sqrt(step)
	}
	v := new(big.Float).SetPrec(256).SetInt64(1)
	for j := range t {
		t[j], _ = v.Float64()
		v.Mul(v, step)
	}
	return t
}()

// SigmoidInto sets dst[i] = 1/(1+exp(−s·(a[i]−t))) for every i of dst,
// the differentiable resist model (Eq. 8 of the paper). dst may alias a.
// It agrees with the same expression through math.Exp to within 1e-15
// relative, is exactly 1/2 at a[i] = t, and saturates to 0 and 1 (and
// maps NaN to NaN) as math.Exp does. On CPUs with AVX2 and FMA the
// elements up to the last multiple of 4 run in the assembly kernel; the
// result is the same bits either way.
func SigmoidInto(dst, a []float64, s, t float64) { SigmoidDoseInto(dst, a, 1, s, t) }

// SigmoidDoseInto is SigmoidInto of the dose-scaled image: dst[i] =
// 1/(1+exp(−s·(dose·a[i]−t))), with dose·a[i] rounded once, so it gives
// the bits of SigmoidInto over a copy scaled by dose. At dose 1, 1·v is
// v (and v−t quiets a signalling NaN either way), so the multiply leaves
// SigmoidInto's bits as they were without it.
func SigmoidDoseInto(dst, a []float64, dose, s, t float64) {
	a = a[:len(dst)]
	n, slow := sigmoidVec(dst, a, dose, s, t)
	if sigmoidGo(dst[n:], a[n:], dose, s, t) || slow {
		sigmoidExp(dst)
	}
}

// The sigmoid_avx2 gauge says which kernel produced a run's timings: 1
// for the AVX2 assembly, 0 for the Go loop.
func init() {
	g := obs.Default.Gauge("grid.sigmoid_avx2")
	if sigmoidAVX2OK {
		g.Set(1)
	}
}

// sigmoidGo is the table form of σ over dst and dose·a (a at least as
// long).
// An element whose exponent −s·(dose·a[i]−t) is outside ±expFast or NaN is
// left as that exponent, a marker that is never in [0, 1], and the
// result says whether there was one; sigmoidExp finishes those.
func sigmoidGo(dst, a []float64, dose, s, t float64) (slow bool) {
	a = a[:len(dst)]
	for i, v := range a {
		z := -s * (v*dose - t)
		if !(z >= -expFast && z <= expFast) {
			dst[i] = z
			slow = true
			continue
		}
		kd := float64(z*invLn2N) + expShift
		kd -= expShift
		k := int64(kd)
		r := math.FMA(-kd, ln2HiN, z)
		r = math.FMA(-kd, ln2LoN, r)
		q := math.FMA(r, 1.0/120, 1.0/24)
		q = math.FMA(r, q, 1.0/6)
		q = math.FMA(r, q, 0.5)
		p := math.FMA(float64(r*r), q, r) // exp(r) − 1
		tj := expTable[k&(expN-1)]
		scale := math.Float64frombits(uint64(k>>expBits+1023) << 52)
		e := float64(math.FMA(tj, p, tj) * scale)
		dst[i] = 1 / (1 + e)
	}
	return slow
}

// sigmoidExp replaces the markers sigmoidGo leaves with σ through
// math.Exp, where it saturates to 0 or 1 or is NaN.
func sigmoidExp(dst []float64) {
	for i, z := range dst {
		if !(z >= 0 && z <= 1) {
			dst[i] = 1 / (1 + math.Exp(z))
		}
	}
}
