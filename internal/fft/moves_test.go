package fft

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
)

// moveEdge are the values the movement kernels must carry bit for bit:
// signed zeros, subnormals, values at the ends of the range, both
// infinities, a quiet and a signalling NaN with payloads, and plain
// numbers.
var moveEdge = []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e300, -1e300, 1e-300,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8_0000_dead_beef),
	math.Float64frombits(0x7ff0_0000_0000_0001), 1, -0.75, 3.25}

// finiteEdge are the finite ones a whole transform can carry without
// turning every output into NaN or an infinity.
var finiteEdge = []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e-300, 1, -0.75}

// edgeFloats returns n values, a third from the unit interval and the
// rest from edge.
func edgeFloats(rng *rand.Rand, edge []float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = rng.Float64()*2 - 1
		} else {
			v[i] = edge[rng.Intn(len(edge))]
		}
	}
	return v
}

// complexOf pairs up v as complex values.
func complexOf(v []float64) []complex128 {
	c := make([]complex128, len(v)/2)
	for i := range c {
		c[i] = complex(v[2*i], v[2*i+1])
	}
	return c
}

// requireBits fails unless got and want hold the same float64 bits.
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), Go loop %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func requireComplexBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	requireBits(t, what, floatsOf(got), floatsOf(want))
}

func floatsOf(c []complex128) []float64 {
	v := make([]float64, 0, 2*len(c))
	for _, z := range c {
		v = append(v, real(z), imag(z))
	}
	return v
}

// checkMoves runs every movement of the selected kernel (fastKernel)
// and of the Go loops on one source of h rows at a row stride of w and
// on one column scratch, and requires the same bits from both. The
// scratch and destination start from the same stale contents on both
// sides, so a kernel that writes too little or too much is seen too.
func checkMoves(t *testing.T, w, h, band int, src []complex128, s []complex128, sc float64) {
	t.Helper()
	k, rev := fastKernel, CachedPlan(h).rev
	lo, hi := bandGap(band, h)
	what := fmt.Sprintf("w=%d h=%d band=%d", w, h, band)
	stale := make([]complex128, colBlock*h)
	for i := range stale {
		stale[i] = complex(float64(i), -1)
	}
	type gather func(s, src []complex128, rev []int32, w, lo, hi int)
	for _, m := range []struct {
		name      string
		width     int // source elements per row the gather reads
		got, want gather
	}{
		{"gather", colBlock, k.gather, goKernel.gather},
		{"gatherPairs", 2 * colBlock, k.gatherPairs, goKernel.gatherPairs},
	} {
		if w < m.width {
			continue
		}
		got, want := append([]complex128(nil), stale...), append([]complex128(nil), stale...)
		m.got(got, src, rev, w, lo, hi)
		m.want(want, src, rev, w, lo, hi)
		requireComplexBits(t, what+" "+m.name, got, want)
	}
	if w >= colBlock {
		n := (h-1)*w + colBlock
		got, want := append([]complex128(nil), src[:n]...), append([]complex128(nil), src[:n]...)
		k.scatter(got, s, w, h)
		goKernel.scatter(want, s, w, h)
		requireComplexBits(t, what+" scatter", got, want)
		copy(got, src)
		copy(want, src)
		k.scatterScaled(got, s, w, h, sc)
		goKernel.scatterScaled(want, s, w, h, sc)
		requireComplexBits(t, what+" scatterScaled", got, want)
	}
	if w >= 2*colBlock {
		n := (h-1)*w + 2*colBlock
		got, want := floatsOf(src)[:n], floatsOf(src)[:n]
		k.scatterReal(got, s, w, h, sc)
		goKernel.scatterReal(want, s, w, h, sc)
		requireBits(t, what+" scatterReal", got, want)
	}
}

// checkPack holds the selected kernel's pack to the Go loop on the rows
// r0 and r1, whose length must be a multiple of 4, as that of every row
// plan selecting the kernel is.
func checkPack(t *testing.T, r0, r1 []float64) {
	t.Helper()
	got, want := make([]complex128, len(r0)), make([]complex128, len(r0))
	fastKernel.pack(got, r0, r1)
	goKernel.pack(want, r0, r1)
	requireComplexBits(t, fmt.Sprintf("pack n=%d", len(r0)), got, want)
}

// TestColumnMovesMatchGo holds every data-movement kernel to its Go
// loop bit for bit, on sources and scratch mixing NaNs (a signalling one
// included), infinities, signed zeros and subnormals, for column
// lengths and row strides from 2 to 1024 and row bands −1, 0, 1, r, 2r
// and h/2−1. Then it runs every batch pass with the selected kernels
// and with the Go loops everywhere and requires the same bits on grids
// whose banded column runs end in tails of 1 to 3 columns, which the
// Go loops move.
func TestColumnMovesMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for h := 2; h <= 1024; h *= 2 {
		r := h/16 + 1
		s := complexOf(edgeFloats(rng, moveEdge, 2*colBlock*h))
		for w := 2; w <= 1024; w *= 2 {
			src := complexOf(edgeFloats(rng, moveEdge, 2*((h-1)*w+2*colBlock)))
			for _, band := range []int{-1, 0, 1, r, 2 * r, h/2 - 1} {
				checkMoves(t, w, h, band, src, s, 1/float64(w*h))
			}
		}
		if h >= 4 {
			checkPack(t, edgeFloats(rng, moveEdge, h), edgeFloats(rng, moveEdge, h))
		}
	}

	for _, g := range [][2]int{{8, 8}, {16, 64}, {64, 16}, {128, 32}, {4, 8}, {2, 16}} {
		w, h := g[0], g[1]
		sel := func(eng *engine.Engine) *BatchPlan2D { return NewBatchPlan2D(w, h, eng) }
		gen := func(eng *engine.Engine) *BatchPlan2D {
			return NewBatchPlan2DFromPlans(genericPlan(CachedPlan(w)), genericPlan(CachedPlan(h)), eng, nil)
		}
		for _, band := range []int{-1, 0, 1, 2, 3, 5, min(w, h)/2 - 1} {
			checkPassesMatchGo(t, w, h, band, rng, sel, gen)
		}
	}
}

// checkPassesMatchGo runs every pass of a plan made by sel and of one
// made by gen, on 1 and 3 workers, on inputs with signed zeros and
// subnormals, and requires the same bits.
func checkPassesMatchGo(t *testing.T, w, h, band int, rng *rand.Rand, sel, gen func(*engine.Engine) *BatchPlan2D) {
	t.Helper()
	in := complexOf(edgeFloats(rng, finiteEdge, 2*w*h))
	re := edgeFloats(rng, finiteEdge, w*h)
	type pass struct {
		name string
		run  func(p *BatchPlan2D, c *grid.CField, f *grid.Field)
	}
	passes := []pass{
		{"BatchForward", func(p *BatchPlan2D, c *grid.CField, _ *grid.Field) { p.BatchForward([]*grid.CField{c}) }},
		{"BatchInverse", func(p *BatchPlan2D, c *grid.CField, _ *grid.Field) { p.BatchInverse([]*grid.CField{c}) }},
		{"BatchInverseBanded", func(p *BatchPlan2D, c *grid.CField, _ *grid.Field) { p.BatchInverseBanded([]*grid.CField{c}, band) }},
		{"BatchForwardBandedCols", func(p *BatchPlan2D, c *grid.CField, _ *grid.Field) {
			p.BatchForwardBandedCols([]*grid.CField{c}, band)
		}},
		{"InverseRealBanded", func(p *BatchPlan2D, c *grid.CField, f *grid.Field) { p.InverseRealBanded(f, c, band) }},
		{"ForwardReal", func(p *BatchPlan2D, c *grid.CField, f *grid.Field) { p.ForwardReal(c, f, band) }},
	}
	for _, eng := range refEngines() {
		for _, ps := range passes {
			var out [2][]float64
			for i, mk := range []func(*engine.Engine) *BatchPlan2D{sel, gen} {
				c, f := grid.NewCField(w, h), grid.NewField(w, h)
				copy(c.Data, in)
				copy(f.Data, re)
				ps.run(mk(eng), c, f)
				out[i] = append(floatsOf(c.Data), f.Data...)
			}
			requireBits(t, fmt.Sprintf("%dx%d band %d %s %s", w, h, band, eng.Name(), ps.name), out[0], out[1])
		}
	}
}

// FuzzColumnMovesMatchGo holds every movement kernel to its Go loop on
// arbitrary bit patterns: the first bytes pick the column length and
// row stride (2 … 512) and the row band, and each 8 data bytes are one
// float64, cycled over the source and the scratch.
func FuzzColumnMovesMatchGo(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(uint8(6), uint8(2), uint8(5), []byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Add(uint8(1), uint8(9), uint8(255), []byte("column moves"))
	f.Add(uint8(8), uint8(4), uint8(2), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0xff, 1, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, logW, logH, bandByte uint8, data []byte) {
		if len(data) < 8 {
			return
		}
		w, h := 2<<(logW%9), 2<<(logH%9)
		band := int(bandByte) - 1
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		cycle := func(n, off int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = vals[(i+off)%len(vals)]
			}
			return v
		}
		src := complexOf(cycle(2*((h-1)*w+2*colBlock), 0))
		s := complexOf(cycle(2*colBlock*h, 1))
		checkMoves(t, w, h, band, src, s, 1/float64(w*h))
		if w >= 4 {
			checkPack(t, cycle(w, 2), cycle(w, 3))
		}
	})
}
