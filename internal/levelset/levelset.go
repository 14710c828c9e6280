// Package levelset provides the level-set machinery of the paper's §III:
// the signed-distance representation of the mask contour (Eq. 5), the
// mask extraction rule (Eq. 6), gradient-magnitude stencils for the
// evolution velocity (Eq. 10), the CFL-limited time step of Algorithm 1,
// and periodic reinitialisation back to a signed distance function.
//
// Distances are measured in pixels (the simulation grid's natural unit);
// a proper SDF then has |∇ψ| ≈ 1, which keeps the velocity scaling of
// Eq. 10 well conditioned at any grid resolution.
package levelset

import (
	"math"

	"lsopc/internal/grid"
)

// inf is the padding value for the distance transform; any finite
// distance on a real grid is far smaller.
const inf = math.MaxFloat64 / 4

// edtSq1D computes the 1-D squared-distance transform of f in place
// using the Felzenszwalb–Huttenlocher lower-envelope-of-parabolas
// algorithm: d[x] = min_x' (f[x'] + (x−x')²). v, z and out are caller
// scratch of length ≥ n (z needs n+1).
func edtSq1D(f, out []float64, v []int, z []float64) {
	n := len(f)
	k := 0
	v[0] = 0
	z[0] = -inf
	z[1] = inf
	for q := 1; q < n; q++ {
		var s float64
		for {
			p := v[k]
			s = ((f[q] + float64(q*q)) - (f[p] + float64(p*p))) / float64(2*(q-p))
			if s > z[k] {
				break
			}
			k--
		}
		k++
		v[k] = q
		z[k] = s
		z[k+1] = inf
	}
	k = 0
	for q := 0; q < n; q++ {
		for z[k+1] < float64(q) {
			k++
		}
		d := float64(q - v[k])
		out[q] = d*d + f[v[k]]
	}
}

// edtSq writes into out the exact Euclidean squared-distance transform
// of the set {(x,y) : set(x,y) is true}: out(x,y) = min over set pixels
// p of |(x,y)−p|². Pixels in the set get 0. If the set is empty, every
// output is +inf. set must not read out.
func edtSq(out *grid.Field, set func(x, y int) bool) {
	w, h := out.W, out.H
	// Column pass.
	colIn := make([]float64, h)
	colOut := make([]float64, h)
	v := make([]int, max(w, h))
	z := make([]float64, max(w, h)+1)
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			if set(x, y) {
				colIn[y] = 0
			} else {
				colIn[y] = inf
			}
		}
		edtSq1D(colIn, colOut, v, z)
		for y := 0; y < h; y++ {
			out.Set(x, y, colOut[y])
		}
	}
	// Row pass.
	rowOut := make([]float64, w)
	for y := 0; y < h; y++ {
		edtSq1D(out.Row(y), rowOut, v, z)
		copy(out.Row(y), rowOut)
	}
}

// SignedDistance computes the signed distance function of the binary
// mask (values > 0.5 are inside) following the paper's Eq. 5 convention:
// negative inside the pattern, positive outside, ≈0 on the contour.
// Distances are in pixels. If the mask is uniformly inside or outside,
// the corresponding half is filled with ∓(W+H) as an "infinitely far"
// sentinel.
func SignedDistance(mask *grid.Field) *grid.Field {
	psi := grid.NewFieldLike(mask)
	signedDistanceInto(psi, grid.NewFieldLike(mask),
		func(x, y int) bool { return mask.At(x, y) > 0.5 },
		func(x, y int) bool { return mask.At(x, y) <= 0.5 })
	return psi
}

// signedDistanceInto writes into psi the signed distance between the
// pixel sets inside and outside (see SignedDistance), using tmp as
// scratch of the same shape. The predicates must not read psi or tmp.
func signedDistanceInto(psi, tmp *grid.Field, inside, outside func(x, y int) bool) {
	edtSq(psi, inside)  // squared distance to the pattern, 0 on it
	edtSq(tmp, outside) // squared distance to the background, 0 on it
	far := float64(psi.W + psi.H)
	for i, dIn := range psi.Data {
		dOut := tmp.Data[i]
		switch {
		case dIn >= inf && dOut >= inf:
			// Unreachable: every pixel is in exactly one set.
			psi.Data[i] = 0
		case dIn >= inf:
			// No pattern anywhere: everything is far outside.
			psi.Data[i] = far
		case dOut >= inf:
			// No background anywhere: everything is far inside.
			psi.Data[i] = -far
		default:
			psi.Data[i] = math.Sqrt(dIn) - math.Sqrt(dOut)
		}
	}
}

// MaskFromPsi extracts the binary mask from the level-set function per
// Eq. 6: 1 (m_in) where ψ ≤ 0, 0 (m_out) where ψ > 0.
func MaskFromPsi(dst, psi *grid.Field) {
	for i, v := range psi.Data {
		if v <= 0 {
			dst.Data[i] = 1
		} else {
			dst.Data[i] = 0
		}
	}
}

// GradMag computes |∇ψ| with central differences in the interior and
// one-sided differences at the borders, writing into dst.
func GradMag(dst, psi *grid.Field) {
	w, h := psi.W, psi.H
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var gx, gy float64
			switch {
			case x == 0:
				gx = psi.At(1, y) - psi.At(0, y)
			case x == w-1:
				gx = psi.At(w-1, y) - psi.At(w-2, y)
			default:
				gx = 0.5 * (psi.At(x+1, y) - psi.At(x-1, y))
			}
			switch {
			case y == 0:
				gy = psi.At(x, 1) - psi.At(x, 0)
			case y == h-1:
				gy = psi.At(x, h-1) - psi.At(x, h-2)
			default:
				gy = 0.5 * (psi.At(x, y+1) - psi.At(x, y-1))
			}
			dst.Set(x, y, math.Hypot(gx, gy))
		}
	}
}

// GradMagUpwind computes the Godunov upwind gradient magnitude for the
// Hamilton–Jacobi advection ψ_t + v|∇ψ| = 0, selecting one-sided
// differences by the sign of the speed field v at each pixel. This is
// the numerically stable stencil for strong velocities; the paper's
// Eq. 10 uses the plain magnitude, which GradMag provides.
func GradMagUpwind(dst, psi, v *grid.Field) {
	w, h := psi.W, psi.H
	at := func(x, y int) float64 {
		if x < 0 {
			x = 0
		}
		if x >= w {
			x = w - 1
		}
		if y < 0 {
			y = 0
		}
		if y >= h {
			y = h - 1
		}
		return psi.At(x, y)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := psi.At(x, y)
			dxm := c - at(x-1, y) // backward
			dxp := at(x+1, y) - c // forward
			dym := c - at(x, y-1)
			dyp := at(x, y+1) - c
			var gx2, gy2 float64
			if v.At(x, y) > 0 {
				// Front moves outward: use max(dxm,0), min(dxp,0).
				a := math.Max(dxm, 0)
				b := math.Min(dxp, 0)
				gx2 = math.Max(a*a, b*b)
				a = math.Max(dym, 0)
				b = math.Min(dyp, 0)
				gy2 = math.Max(a*a, b*b)
			} else {
				a := math.Min(dxm, 0)
				b := math.Max(dxp, 0)
				gx2 = math.Max(a*a, b*b)
				a = math.Min(dym, 0)
				b = math.Max(dyp, 0)
				gy2 = math.Max(a*a, b*b)
			}
			dst.Set(x, y, math.Sqrt(gx2+gy2))
		}
	}
}

// TimeStep returns the CFL-limited step Δt = λ_t / max|v| (Algorithm 1,
// line 5). It returns 0 when the velocity is identically zero, which
// callers treat as convergence.
func TimeStep(lambda float64, v *grid.Field) float64 {
	m := v.MaxAbs()
	if m == 0 {
		return 0
	}
	return lambda / m
}

// Evolve advances the level-set function in place: ψ ← ψ + v·Δt
// (Algorithm 1, line 6).
func Evolve(psi, v *grid.Field, dt float64) {
	psi.AddScaled(v, dt)
}

// Reinitialize rebuilds ψ as the exact signed distance function of its
// own zero sub-level set, preserving the contour while restoring the
// |∇ψ| ≈ 1 property that long evolutions erode. Returns the new ψ.
func Reinitialize(psi *grid.Field) *grid.Field {
	dst := grid.NewFieldLike(psi)
	ReinitializeInto(dst, grid.NewFieldLike(psi), psi)
	return dst
}

// ReinitializeInto is Reinitialize writing the new ψ into dst, with tmp
// as scratch, so a caller holding both allocates no field. dst, tmp and
// psi must be distinct fields of one shape. The inside set is Eq. 6's
// ψ ≤ 0, exactly what SignedDistance(MaskFromPsi(ψ)) would read.
func ReinitializeInto(dst, tmp, psi *grid.Field) {
	signedDistanceInto(dst, tmp,
		func(x, y int) bool { return psi.At(x, y) <= 0 },
		func(x, y int) bool { return !(psi.At(x, y) <= 0) })
}

// Curvature computes the mean curvature κ = div(∇ψ/|∇ψ|) with central
// differences, used by the optional contour-smoothing regulariser.
// Border pixels get 0.
func Curvature(dst, psi *grid.Field) {
	w, h := psi.W, psi.H
	dst.Zero()
	const eps = 1e-12
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			px := 0.5 * (psi.At(x+1, y) - psi.At(x-1, y))
			py := 0.5 * (psi.At(x, y+1) - psi.At(x, y-1))
			pxx := psi.At(x+1, y) - 2*psi.At(x, y) + psi.At(x-1, y)
			pyy := psi.At(x, y+1) - 2*psi.At(x, y) + psi.At(x, y-1)
			pxy := 0.25 * (psi.At(x+1, y+1) - psi.At(x+1, y-1) - psi.At(x-1, y+1) + psi.At(x-1, y-1))
			den := math.Pow(px*px+py*py+eps, 1.5)
			dst.Set(x, y, (pxx*py*py-2*px*py*pxy+pyy*px*px)/den)
		}
	}
}
