package levelset

import (
	"math"
	"math/rand"
	"testing"

	"lsopc/internal/grid"
)

// GradMag is GradMagRows over every row of psi: the whole-field |∇ψ|
// the level-set tests measure.
func GradMag(dst, psi *grid.Field) { GradMagRows(dst, psi, 0, psi.H) }

// gradSpecials are operands |∇ψ| must get exactly right: NaNs with
// payloads and signs, ±Inf, ±0, subnormals, the extremes of the normal
// range, and values whose differences overflow, cancel or underflow.
var gradSpecials = []float64{
	math.NaN(), math.Float64frombits(0xfff0000000000123), math.Float64frombits(0x7ff4000000000abc),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 0x1p-1022, -0x1.8p-1030, math.MaxFloat64, -math.MaxFloat64,
	1e300, -1e300, 1e-300, -1e-300, 1, -1, 0.5, 3,
}

// gradOperand draws one operand: a special value, or a random sign and
// mantissa at an exponent anywhere in the float64 range, or an ordinary
// SDF-like value.
func gradOperand(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return gradSpecials[rng.Intn(len(gradSpecials))]
	case 1:
		return math.Ldexp(2*rng.Float64()-1, rng.Intn(2098)-1074)
	default:
		return 40*rng.Float64() - 20
	}
}

// checkGradMagMatchesGo runs the interior central differences through
// gradMagVec with gradMagGo on the tail and through gradMagGo alone, into
// destinations filled with stale values, and requires the same bits.
func checkGradMagMatchesGo(t *testing.T, row, up, down []float64, k float64) {
	t.Helper()
	n := len(up)
	want, got := make([]float64, n), make([]float64, n)
	for i := range got {
		want[i], got[i] = math.NaN(), -7 // stale
	}
	gradMagGo(want, row, up, down, k)
	v := gradMagVec(got, row, up, down, k)
	if gradMagAVX2OK && v != n&^3 || !gradMagAVX2OK && v != 0 {
		t.Fatalf("len %d: kernel covered %d elements", n, v)
	}
	gradMagGo(got[v:], row[v:], up[v:], down[v:], k)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			p, q := 0.5*(row[i+2]-row[i]), k*(down[i]-up[i])
			t.Fatalf("len %d k=%v element %d: Hypot(%v, %v): kernel %v (%#x), Go loop %v (%#x)",
				n, k, i, p, q, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestGradMagKernelMatchesGo holds the AVX2 |∇ψ| kernel to the Go loop
// (math.Hypot) bit for bit: special operands in every lane position
// between ordinary ones, every length residue mod 4, and a dense sweep of
// 2^20 pairs whose magnitudes span the float64 range, equal pairs among
// them.
func TestGradMagKernelMatchesGo(t *testing.T) {
	if !gradMagAVX2OK {
		t.Skip("the CPU lacks AVX2; GradMagRows runs the Go loop alone")
	}
	rng := rand.New(rand.NewSource(32))
	for _, k := range []float64{0.5, 1} {
		// Each special against each special and against ordinary
		// values, in every lane.
		var row, up, down []float64
		for _, a := range gradSpecials {
			for _, b := range gradSpecials {
				for lane := 0; lane < 4; lane++ {
					for j := 0; j < 4; j++ {
						r, u, d := gradOperand(rng), gradOperand(rng), gradOperand(rng)
						if j == lane {
							r, u, d = a, 0, b
						}
						row, up, down = append(row, r), append(up, u), append(down, d)
					}
				}
			}
		}
		row = append(row, gradOperand(rng), gradOperand(rng))
		for n := 0; n <= 13; n++ {
			checkGradMagMatchesGo(t, row[:n+2], up[:n], down[:n], k)
			m := len(up)
			checkGradMagMatchesGo(t, row[m-n:], up[m-n:], down[m-n:], k)
		}
		checkGradMagMatchesGo(t, row, up, down, k)

		// Equal magnitudes, |p| = |q| exactly, so min/max is 1: row is
		// 0, 0, a, b, 0, 0, c, d, …, so of row[i] and row[i+2] one is 0
		// and |p| is half the other.
		eq := 1 << 10
		row, up, down = make([]float64, eq+2), make([]float64, eq), make([]float64, eq)
		for i := 2; i < len(row); i += 4 {
			row[i] = math.Ldexp(rng.Float64(), rng.Intn(2000)-1000)
			row[i+1] = -math.Ldexp(rng.Float64(), rng.Intn(2000)-1000)
		}
		for i := range up {
			down[i] = (row[i] + row[i+2]) * 0.5 / k
		}
		checkGradMagMatchesGo(t, row, up, down, k)
	}
	dense := 1 << 20
	row, up, down := make([]float64, dense+2), make([]float64, dense), make([]float64, dense)
	for i := range row {
		row[i] = gradOperand(rng)
	}
	for i := range up {
		up[i], down[i] = gradOperand(rng), gradOperand(rng)
	}
	checkGradMagMatchesGo(t, row, up, down, 0.5)
}

// TestGradMagRowsMatchesHypot: GradMagRows, kernel and all, is the
// textbook central-difference |∇ψ| through math.Hypot on every width,
// with special values in the field.
func TestGradMagRowsMatchesHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for w := 2; w <= 13; w++ {
		for _, h := range []int{2, 3, 5} {
			psi := grid.NewField(w, h)
			for i := range psi.Data {
				psi.Data[i] = gradOperand(rng)
			}
			got := grid.NewField(w, h)
			for i := range got.Data {
				got.Data[i] = math.NaN() // stale
			}
			GradMag(got, psi)
			at := func(x, y int) float64 { return psi.Data[y*w+x] }
			for y := 0; y < h; y++ {
				y0, y1, ky := max(y-1, 0), min(y+1, h-1), 0.5
				if y == 0 || y == h-1 {
					ky = 1
				}
				for x := 0; x < w; x++ {
					var gx float64
					switch x {
					case 0:
						gx = at(1, y) - at(0, y)
					case w - 1:
						gx = at(w-1, y) - at(w-2, y)
					default:
						gx = 0.5 * (at(x+1, y) - at(x-1, y))
					}
					want := math.Hypot(gx, ky*(at(x, y1)-at(x, y0)))
					if g := got.Data[y*w+x]; math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("%dx%d pixel (%d,%d): %v, want %v", w, h, x, y, g, want)
					}
				}
			}
		}
	}
}

// FuzzGradMagKernelMatchesGo is TestGradMagKernelMatchesGo on fuzzed
// slices: each 3 data bytes make one pixel's row, up and down operands,
// each an ordinary value, a scaled one or a special; the data's length
// sets the slice's.
func FuzzGradMagKernelMatchesGo(f *testing.F) {
	f.Add(false, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add(true, []byte("special lanes between ordinary ones"))
	f.Add(false, []byte{200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211, 212, 213, 214, 215})
	f.Fuzz(func(t *testing.T, edge bool, data []byte) {
		if !gradMagAVX2OK {
			t.Skip("the CPU lacks AVX2; GradMagRows runs the Go loop alone")
		}
		operand := func(b byte) float64 {
			switch {
			case b >= 200:
				return gradSpecials[int(b-200)%len(gradSpecials)]
			case b >= 100:
				return math.Ldexp(float64(b)-150, int(b)*20-3000)
			default:
				return float64(b)/7 - 7
			}
		}
		n := len(data) / 3
		row, up, down := make([]float64, n+2), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			row[i+2], up[i], down[i] = operand(data[3*i]), operand(data[3*i+1]), operand(data[3*i+2])
		}
		k := 0.5
		if edge {
			k = 1
		}
		checkGradMagMatchesGo(t, row, up, down, k)
	})
}

func BenchmarkGradMagRows(b *testing.B) {
	psi := grid.NewField(512, 512)
	rng := rand.New(rand.NewSource(1))
	for i := range psi.Data {
		psi.Data[i] = 40*rng.Float64() - 20
	}
	dst := grid.NewField(512, 512)
	for i := 0; i < b.N; i++ {
		GradMag(dst, psi)
	}
}
