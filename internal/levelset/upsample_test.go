package levelset

import (
	"math"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/fft"
	"lsopc/internal/grid"
)

func TestUpsampleSpectralFactor1IsClone(t *testing.T) {
	f := grid.NewField(8, 8)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	g := UpsampleSpectral(f, 1, nil)
	if g == f {
		t.Fatal("factor 1 must return a copy, not the input")
	}
	for i := range f.Data {
		if g.Data[i] != f.Data[i] {
			t.Fatalf("clone differs at %d", i)
		}
	}
}

func TestUpsampleSpectralConstant(t *testing.T) {
	const c = 3.25
	f := grid.NewField(16, 16)
	f.Fill(c)
	g := UpsampleSpectral(f, 4, nil)
	if g.W != 64 || g.H != 64 {
		t.Fatalf("upsampled shape %dx%d, want 64x64", g.W, g.H)
	}
	for i, v := range g.Data {
		if math.Abs(v-c) > 1e-12 {
			t.Fatalf("pixel %d = %g, want %g (constant must survive)", i, v, c)
		}
	}
}

// TestUpsampleSpectralBandlimitedExact: for a signal band-limited below
// the coarse Nyquist frequency, zero-padded spectral interpolation is
// the exact sampling of the same continuous signal on the fine grid.
func TestUpsampleSpectralBandlimitedExact(t *testing.T) {
	const n = 32
	wave := func(u, v float64) float64 {
		return math.Sin(2*math.Pi*3*u) * math.Cos(2*math.Pi*5*v)
	}
	coarse := grid.NewField(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			coarse.Set(x, y, wave(float64(x)/n, float64(y)/n))
		}
	}
	fine := UpsampleSpectral(coarse, 2, nil)
	for y := 0; y < 2*n; y++ {
		for x := 0; x < 2*n; x++ {
			want := wave(float64(x)/(2*n), float64(y)/(2*n))
			if got := fine.At(x, y); math.Abs(got-want) > 1e-10 {
				t.Fatalf("(%d,%d) = %g, want %g", x, y, got, want)
			}
		}
	}
}

func TestUpsampleSpectralRejectsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("factor 3 did not panic")
		}
	}()
	UpsampleSpectral(grid.NewField(8, 8), 3, nil)
}

// refUpsampleSpectral is UpsampleSpectral as it ran before the banded
// inverse: both transforms serial, the fine spectrum inverse-transformed
// in full, zero rows included.
func refUpsampleSpectral(psi *grid.Field, factor int) *grid.Field {
	w, h := psi.W, psi.H
	fw, fh := w*factor, h*factor
	coarse := grid.NewCField(w, h)
	coarse.SetReal(psi)
	fft.NewBatchPlan2D(w, h, nil).BatchForward([]*grid.CField{coarse})
	uIdx, uWgt := spreadAxis(w, fw)
	vIdx, vWgt := spreadAxis(h, fh)
	fine := grid.NewCField(fw, fh)
	scale := complex(float64(factor*factor), 0)
	for v := 0; v < h; v++ {
		for u := 0; u < w; u++ {
			val := coarse.Data[v*w+u] * scale
			for vi, tv := range vIdx[v] {
				for ui, tu := range uIdx[u] {
					if vWgt[v][vi] != 0 && uWgt[u][ui] != 0 {
						fine.Data[tv*fw+tu] += val * complex(vWgt[v][vi]*uWgt[u][ui], 0)
					}
				}
			}
		}
	}
	fft.NewBatchPlan2D(fw, fh, nil).BatchInverse([]*grid.CField{fine})
	out := grid.NewField(fw, fh)
	fine.Real(out)
	return out
}

// TestUpsampleSpectralMatchesFullInverse: the banded inverse on engines
// of 1, 2 and 3 workers gives the full serial inverse's bits, for every
// factor and for non-square grids.
func TestUpsampleSpectralMatchesFullInverse(t *testing.T) {
	for _, g := range []struct{ w, h, factor int }{{16, 16, 2}, {32, 16, 2}, {16, 32, 4}, {64, 64, 2}, {8, 8, 8}} {
		psi := blockPsi(g.w, 5)
		if g.h != g.w {
			psi = grid.NewField(g.w, g.h)
			for i := range psi.Data {
				psi.Data[i] = math.Sin(float64(i)*0.37) * float64(i%11)
			}
		}
		want := refUpsampleSpectral(psi, g.factor)
		for _, workers := range []int{1, 2, 3} {
			got := UpsampleSpectral(psi, g.factor, engine.New("up", workers))
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("%dx%d ×%d on %d workers: pixel %d = %v, full inverse %v", g.w, g.h, g.factor, workers, i, got.Data[i], v)
				}
			}
		}
	}
}
