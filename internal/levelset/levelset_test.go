package levelset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
)

// bruteEDTSq is the O(n⁴) reference squared-distance transform.
func bruteEDTSq(w, h int, set func(x, y int) bool) *grid.Field {
	out := grid.NewField(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			best := inf
			for v := 0; v < h; v++ {
				for u := 0; u < w; u++ {
					if set(u, v) {
						d := float64((x-u)*(x-u) + (y-v)*(y-v))
						if d < best {
							best = d
						}
					}
				}
			}
			out.Set(x, y, best)
		}
	}
	return out
}

func rectMask(n, x0, y0, x1, y1 int) *grid.Field {
	m := grid.NewField(n, n)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			m.Set(x, y, 1)
		}
	}
	return m
}

func TestEDTMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		const n = 16
		m := grid.NewField(n, n)
		for i := range m.Data {
			if rng.Float64() < 0.3 {
				m.Data[i] = 1
			}
		}
		set := func(x, y int) bool { return m.At(x, y) > 0.5 }
		got := grid.NewField(n, n)
		NewEDT(n, n, engine.New("edt3", 3)).sq(got, grid.NewField(n, n), m, maskSets)
		want := bruteEDTSq(n, n, set)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("trial %d: EDT disagrees with brute force", trial)
		}
	}
}

func TestEDTSinglePoint(t *testing.T) {
	const n = 8
	m := grid.NewField(n, n)
	m.Set(3, 5, 1)
	d := grid.NewField(n, n)
	NewEDT(n, n, nil).sq(d, grid.NewField(n, n), m, maskSets)
	if d.At(3, 5) != 0 {
		t.Fatal("distance at the set pixel must be 0")
	}
	if d.At(0, 0) != float64(3*3+5*5) {
		t.Fatalf("corner distance = %g", d.At(0, 0))
	}
}

func TestEDTEmptySet(t *testing.T) {
	d := grid.NewField(4, 4)
	NewEDT(4, 4, nil).sq(d, grid.NewField(4, 4), grid.NewField(4, 4), maskSets)
	for _, v := range d.Data {
		if v < inf {
			t.Fatal("empty set must give infinite distances")
		}
	}
}

func TestSignedDistanceSigns(t *testing.T) {
	const n = 32
	m := rectMask(n, 8, 8, 24, 24)
	psi := SignedDistance(m)
	// Deep inside: strongly negative. Deep outside: strongly positive.
	if psi.At(16, 16) >= 0 {
		t.Fatalf("centre ψ = %g, want < 0", psi.At(16, 16))
	}
	if psi.At(0, 0) <= 0 {
		t.Fatalf("corner ψ = %g, want > 0", psi.At(0, 0))
	}
	// Pixel adjacent to the boundary (inside) must be around -1..0.
	if v := psi.At(8, 16); v > 0 || v < -2 {
		t.Fatalf("boundary-adjacent ψ = %g", v)
	}
	// Centre of a 16-wide square is 8 px from the edge.
	if math.Abs(psi.At(16, 16)+8) > 1.5 {
		t.Fatalf("centre depth = %g, want ≈ -8", psi.At(16, 16))
	}
}

func TestSignedDistanceUniformMasks(t *testing.T) {
	const n = 8
	all := grid.NewField(n, n)
	all.Fill(1)
	psi := SignedDistance(all)
	for _, v := range psi.Data {
		if v >= 0 {
			t.Fatal("all-inside mask must give negative ψ everywhere")
		}
	}
	none := grid.NewField(n, n)
	psi = SignedDistance(none)
	for _, v := range psi.Data {
		if v <= 0 {
			t.Fatal("all-outside mask must give positive ψ everywhere")
		}
	}
}

func TestSignedDistanceRoundTrip(t *testing.T) {
	const n = 32
	m := rectMask(n, 5, 9, 20, 27)
	psi := SignedDistance(m)
	back := grid.NewField(n, n)
	MaskFromPsi(back, psi)
	if !back.Equal(m, 0) {
		t.Fatal("MaskFromPsi(SignedDistance(m)) must reproduce m")
	}
}

// Property: the SDF is 1-Lipschitz between 4-neighbours (|ψ(p)−ψ(q)| ≤ 1
// for adjacent pixels, up to the in/out double-transform tolerance).
func TestSignedDistanceLipschitz(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	prop := func() bool {
		const n = 24
		m := grid.NewField(n, n)
		// A couple of random rectangles.
		for r := 0; r < 2; r++ {
			x0, y0 := rng.Intn(n-4), rng.Intn(n-4)
			w, h := 2+rng.Intn(8), 2+rng.Intn(8)
			for y := y0; y < min(y0+h, n); y++ {
				for x := x0; x < min(x0+w, n); x++ {
					m.Set(x, y, 1)
				}
			}
		}
		psi := SignedDistance(m)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if x+1 < n && math.Abs(psi.At(x+1, y)-psi.At(x, y)) > 2+1e-9 {
					return false
				}
				if y+1 < n && math.Abs(psi.At(x, y+1)-psi.At(x, y)) > 2+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return prop() }, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGradMagOfSDFNearOne(t *testing.T) {
	const n = 64
	m := rectMask(n, 16, 16, 48, 48)
	psi := SignedDistance(m)
	g := grid.NewField(n, n)
	GradMag(g, psi)
	// Away from the contour, skeleton and borders, |∇ψ| ≈ 1.
	count, ok := 0, 0
	for y := 4; y < n-4; y++ {
		for x := 4; x < n-4; x++ {
			d := math.Abs(psi.At(x, y))
			if d > 3 && d < 10 { // clear of contour and skeleton
				count++
				if math.Abs(g.At(x, y)-1) < 0.3 {
					ok++
				}
			}
		}
	}
	if count == 0 {
		t.Fatal("no probe pixels")
	}
	if float64(ok) < 0.9*float64(count) {
		t.Fatalf("|∇ψ| ≈ 1 at only %d/%d probes", ok, count)
	}
}

func TestGradMagLinearRamp(t *testing.T) {
	const n = 16
	psi := grid.NewField(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			psi.Set(x, y, 3*float64(x))
		}
	}
	g := grid.NewField(n, n)
	GradMag(g, psi)
	for _, v := range g.Data {
		if math.Abs(v-3) > 1e-12 {
			t.Fatalf("ramp gradient = %g, want 3", v)
		}
	}
}

func TestTimeStepCFL(t *testing.T) {
	v := grid.NewField(4, 4)
	v.Set(1, 1, -5)
	v.Set(2, 2, 3)
	if got := TimeStep(2, v.MaxAbs()); got != 0.4 {
		t.Fatalf("dt = %g, want 0.4", got)
	}
	v.Zero()
	if TimeStep(2, v.MaxAbs()) != 0 {
		t.Fatal("zero velocity must give dt = 0")
	}
}

func TestEvolveMovesContour(t *testing.T) {
	const n = 32
	m := rectMask(n, 10, 10, 22, 22)
	psi := SignedDistance(m)
	// Uniform negative velocity lowers ψ, expanding the ψ≤0 region.
	v := grid.NewField(n, n)
	v.Fill(-1)
	Evolve(psi, v, 1.5)
	out := grid.NewField(n, n)
	MaskFromPsi(out, psi)
	if int(out.Sum()) <= 12*12 {
		t.Fatal("negative velocity must grow the mask")
	}
	// The original interior stays inside.
	if out.At(16, 16) != 1 {
		t.Fatal("interior lost during expansion")
	}
}

func TestReinitializePreservesContour(t *testing.T) {
	const n = 32
	m := rectMask(n, 8, 12, 25, 20)
	psi := SignedDistance(m)
	// Distort ψ away from SDF without moving the zero crossing between
	// pixels: cubing preserves sign.
	for i, v := range psi.Data {
		psi.Data[i] = v * v * v
	}
	re := Reinitialize(psi)
	back := grid.NewField(n, n)
	MaskFromPsi(back, re)
	if !back.Equal(m, 0) {
		t.Fatal("reinitialisation moved the contour")
	}
	// And |∇ψ| must be restored to ≈1 near the boundary.
	g := grid.NewField(n, n)
	GradMag(g, re)
	if math.Abs(g.At(8, 16)-1) > 0.5 {
		t.Fatalf("|∇ψ| after reinit = %g at boundary", g.At(8, 16))
	}
}

// TestReinitializeIntoMatchesMaskPath pins the allocation-free reinit to
// its definition, the signed distance of Eq. 6's mask of ψ, bit for bit,
// with exact zeros and NaNs (both sides of ψ ≤ 0) in the input, on a
// serial and on parallel engines (the EDT fans its column and row
// passes across the workers). SignedDistanceInto, the optimizer's ψ₀ on
// its own engine, must give the serial SignedDistance's bits too.
//
// The widths 13 and 100 are not multiples of the column pass's block,
// so its last block is a narrower tail.
func TestReinitializeIntoMatchesMaskPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, g := range [][2]int{{32, 32}, {13, 40}, {100, 24}} {
		w, h := g[0], g[1]
		psi := grid.NewField(w, h)
		for i := range psi.Data {
			psi.Data[i] = rng.NormFloat64()
		}
		psi.Data[5], psi.Data[77] = 0, math.NaN()
		mask := grid.NewField(w, h)
		MaskFromPsi(mask, psi)
		want := SignedDistance(mask)
		for _, eng := range []*engine.Engine{engine.CPU(), engine.New("gpu3", 3), engine.New("gpu8", 8)} {
			got, tmp := grid.NewField(w, h), grid.NewField(w, h)
			e, sd := NewEDT(w, h, eng), grid.NewField(w, h)
			e.ReinitializeInto(got, tmp, psi)
			e.SignedDistanceInto(sd, tmp, mask)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%dx%d %s pixel %d: ReinitializeInto %g, SignedDistance(MaskFromPsi) %g", w, h, eng.Name(), i, got.Data[i], want.Data[i])
				}
				if math.Float64bits(sd.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%dx%d %s pixel %d: SignedDistanceInto %g, SignedDistance %g", w, h, eng.Name(), i, sd.Data[i], want.Data[i])
				}
			}
		}
	}
}

// bruteSignedDistance is the O(n⁴) reference of the signed distance
// between the pixel sets inside and outside of src, with
// signedDistance's conventions for an empty set.
// The pixel sets of maskSets and psiSets as plain functions of one
// pixel value, for the brute-force references.
func maskInside(v float64) bool  { return v > 0.5 }
func maskOutside(v float64) bool { return v <= 0.5 }
func psiInside(v float64) bool   { return v <= 0 }
func psiOutside(v float64) bool  { return !(v <= 0) }

func bruteSignedDistance(src *grid.Field, inside, outside func(float64) bool) *grid.Field {
	w, h := src.W, src.H
	dIn := bruteEDTSq(w, h, func(x, y int) bool { return inside(src.At(x, y)) })
	dOut := bruteEDTSq(w, h, func(x, y int) bool { return outside(src.At(x, y)) })
	far := float64(w + h)
	out := grid.NewField(w, h)
	for i, a := range dIn.Data {
		b := dOut.Data[i]
		switch {
		case a >= inf && b >= inf:
			out.Data[i] = 0
		case a >= inf:
			out.Data[i] = far
		case b >= inf:
			out.Data[i] = -far
		default:
			out.Data[i] = math.Sqrt(a) - math.Sqrt(b)
		}
	}
	return out
}

// FuzzSignedDistanceMatchesBruteForce holds SignedDistance and
// Reinitialize, and both on a multi-worker EDT, to the brute-force
// reference bit for bit on grids up to 24×24: the first two bytes pick
// the width and height, each later byte one pixel (cycled over the
// grid), as 0, 1, NaN, −0 or a small signed value.
func FuzzSignedDistanceMatchesBruteForce(f *testing.F) {
	f.Add(uint8(15), uint8(15), []byte{0})                         // no pattern (ψ: all inside)
	f.Add(uint8(15), uint8(15), []byte{1})                         // all pattern
	f.Add(uint8(12), uint8(9), append(make([]byte, 60), 1))        // one pixel
	f.Add(uint8(0), uint8(23), []byte{0, 1, 2, 0, 0, 4, 1})        // 1 px wide
	f.Add(uint8(23), uint8(0), []byte{1, 0, 0, 2, 3, 0, 0, 0, 1})  // 1 px tall
	f.Add(uint8(12), uint8(20), []byte{0, 1, 1, 0, 2, 9, 14, 200}) // width 13
	f.Add(uint8(23), uint8(23), []byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Fuzz(func(t *testing.T, wb, hb uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		w, h := 1+int(wb)%24, 1+int(hb)%24
		src := grid.NewField(w, h)
		for i := range src.Data {
			switch b := data[i%len(data)]; b % 5 {
			case 0:
			case 1:
				src.Data[i] = 1
			case 2:
				src.Data[i] = math.NaN()
			case 3:
				src.Data[i] = math.Copysign(0, -1)
			default:
				src.Data[i] = float64(int8(b)) / 32
			}
		}
		check := func(what string, got, want *grid.Field) {
			t.Helper()
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("%dx%d %s pixel %d: %v, brute force %v", w, h, what, i, got.Data[i], v)
				}
			}
		}
		sd, re := bruteSignedDistance(src, maskInside, maskOutside), bruteSignedDistance(src, psiInside, psiOutside)
		check("SignedDistance", SignedDistance(src), sd)
		check("Reinitialize", Reinitialize(src), re)
		e, got, tmp := NewEDT(w, h, engine.New("edt3", 3)), grid.NewField(w, h), grid.NewField(w, h)
		e.SignedDistanceInto(got, tmp, src)
		check("SignedDistanceInto on 3 workers", got, sd)
		e.ReinitializeInto(got, tmp, src)
		check("ReinitializeInto on 3 workers", got, re)
	})
}

// rectsPsi512 is the SDF of a few rectangles at PresetFast scale (512²).
func rectsPsi512() *grid.Field {
	m := grid.NewField(512, 512)
	for _, r := range [][4]int{{40, 60, 200, 120}, {260, 40, 300, 400}, {80, 300, 480, 340}, {350, 150, 470, 260}} {
		for y := r[1]; y < r[3]; y++ {
			for x := r[0]; x < r[2]; x++ {
				m.Set(x, y, 1)
			}
		}
	}
	return SignedDistance(m)
}

// BenchmarkReinitialize512 is one reinitialisation at PresetFast scale
// (512²) on the multi-worker engine, of the SDF of a few rectangles.
func BenchmarkReinitialize512(b *testing.B) {
	const n = 512
	psi := rectsPsi512()
	dst, tmp := grid.NewField(n, n), grid.NewField(n, n)
	e := NewEDT(n, n, engine.GPU())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ReinitializeInto(dst, tmp, psi)
	}
}

// BenchmarkReinitializeFMM512 is one fast-sweeping redistancing of the
// same field, the coarse-to-fine hand-off's operation.
func BenchmarkReinitializeFMM512(b *testing.B) {
	psi := rectsPsi512()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReinitializeFMM(psi)
	}
}
