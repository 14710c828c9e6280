// Package metrics re-implements the ICCAD 2013 contest's quality
// checkers used in the paper's §IV: the edge-placement-error (EPE)
// probe checker (Fig. 1a; Eq. 4), the process-variation band area
// (Fig. 1b), a shape-violation detector, and the contest score function
// (Eq. 18):
//
//	Score = RT + 4·PVBand + 5000·#EPE + 10000·ShapeViol
//
// with runtime in seconds and PV band in nm².
package metrics

import (
	"fmt"
	"math"
	"sync"

	"lsopc/internal/geom"
	"lsopc/internal/grid"
)

// The contest checker's probe rules.
const (
	// epeSpacingNM is the probe spacing along edges.
	epeSpacingNM = 40
	// EPEThresholdNM is the violation threshold th_EPE.
	EPEThresholdNM = 15
	// maxSearchNM is how far to search for the printed contour.
	maxSearchNM = 80
)

// Probe is one EPE measurement site: a point on a target edge with the
// outward normal direction.
type Probe struct {
	X, Y   float64 // nm position on the edge
	Nx, Ny float64 // outward unit normal
}

// Probes places measurement sites on every edge of the layout: one at
// the midpoint of short edges, otherwise every 40 nm starting half a
// spacing from the corner (the contest's probe grid).
func Probes(l *geom.Layout) []Probe {
	var out []Probe
	for _, e := range l.Edges() {
		length := float64(e.Len())
		dirX := float64(e.B.X-e.A.X) / length
		dirY := float64(e.B.Y-e.A.Y) / length
		n := int(length / epeSpacingNM)
		if n == 0 {
			// Short edge: single probe at the midpoint.
			out = append(out, Probe{
				X:  float64(e.A.X) + dirX*length/2,
				Y:  float64(e.A.Y) + dirY*length/2,
				Nx: float64(e.Nx), Ny: float64(e.Ny),
			})
			continue
		}
		for i := 0; i < n; i++ {
			s := (float64(i) + 0.5) * epeSpacingNM
			out = append(out, Probe{
				X:  float64(e.A.X) + dirX*s,
				Y:  float64(e.A.Y) + dirY*s,
				Nx: float64(e.Nx), Ny: float64(e.Ny),
			})
		}
	}
	return out
}

// sampleAt reports whether the printed image is "inside" (printed) at
// the nm coordinate (x, y), clamping to the grid.
func sampleAt(printed *grid.Field, x, y, pitch float64) bool {
	px := int(math.Floor(x / pitch))
	py := int(math.Floor(y / pitch))
	if px < 0 {
		px = 0
	}
	if px >= printed.W {
		px = printed.W - 1
	}
	if py < 0 {
		py = 0
	}
	if py >= printed.H {
		py = printed.H - 1
	}
	return printed.At(px, py) > 0.5
}

// ContourDistance measures the unsigned distance (nm) from the probe's
// target edge to the printed contour along the probe normal, the D of
// Eq. 4 / Fig. 1(a), on an image of pixelNM pitch. If no contour is
// found within maxSearchNM, maxSearchNM is returned (always a
// violation).
func ContourDistance(printed *grid.Field, p Probe, pixelNM float64) float64 {
	step := pixelNM
	at := func(t float64) bool {
		return sampleAt(printed, p.X+t*p.Nx, p.Y+t*p.Ny, pixelNM)
	}
	// Half a pixel to each side of the edge.
	innerOK := at(-step / 2) // should print
	outerOK := !at(step / 2) // should not print
	switch {
	case innerOK && outerOK:
		// Contour lies within ±step/2 of the target edge.
		return 0
	case innerOK && !outerOK:
		// Overprint: printed contour is outside the edge; march outward
		// until the image turns off.
		for t := step / 2; t <= maxSearchNM; t += step {
			if !at(t + step) {
				return t + step/2
			}
		}
	default:
		// Underprint: contour is inside; march inward until printed.
		for t := step / 2; t <= maxSearchNM; t += step {
			if at(-t - step) {
				return t + step/2
			}
		}
	}
	return maxSearchNM
}

// EPE evaluates all probes against the printed image of pixelNM pitch
// and returns the violation count (distance ≥ EPEThresholdNM, Eq. 4)
// and the individual distances (parallel to the probes slice).
func EPE(printed *grid.Field, probes []Probe, pixelNM float64) (violations int, distances []float64) {
	distances = make([]float64, len(probes))
	for i, p := range probes {
		d := ContourDistance(printed, p, pixelNM)
		distances[i] = d
		if d >= EPEThresholdNM {
			violations++
		}
	}
	return violations, distances
}

// PVBand returns the process-variation band area in nm²: the XOR region
// between the outermost and innermost printed contours (Fig. 1b).
func PVBand(outer, inner *grid.Field, pixelNM float64) float64 {
	return float64(outer.XORCount(inner)) * pixelNM * pixelNM
}

// labelComponents labels 4-connected components of pixels > 0.5,
// returning the label field (0 = background, labels start at 1) and the
// component count.
func labelComponents(img *grid.Field) ([]int32, int) {
	labels := make([]int32, len(img.Data))
	return labels, labelInto(labels, img)
}

// labelBufs recycles the label fields of ShapeViolations, which every
// Evaluate call runs on two full-grid images: without it each call
// leaves two grid-sized arrays of garbage.
var labelBufs sync.Pool // of *[]int32

// leaseLabels returns a zeroed label field of n entries from labelBufs.
func leaseLabels(n int) *[]int32 {
	if b, ok := labelBufs.Get().(*[]int32); ok && cap(*b) >= n {
		*b = (*b)[:n]
		clear(*b)
		return b
	}
	b := make([]int32, n)
	return &b
}

// labelInto is labelComponents into the zeroed label field labels; it
// returns the component count.
func labelInto(labels []int32, img *grid.Field) int {
	w, h := img.W, img.H
	next := int32(0)
	var stack []int32
	for start := range img.Data {
		if img.Data[start] <= 0.5 || labels[start] != 0 {
			continue
		}
		next++
		stack = append(stack[:0], int32(start))
		labels[start] = next
		for len(stack) > 0 {
			i := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			x, y := i%w, i/w
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				j := ny*w + nx
				if img.Data[j] > 0.5 && labels[j] == 0 {
					labels[j] = next
					stack = append(stack, int32(j))
				}
			}
		}
	}
	return int(next)
}

// ShapeViolations approximates the contest's visual shape check by
// comparing the connected components of the printed image against the
// target: each missing target shape, stray printed blob, bridge between
// two target shapes, and break of one target shape into several printed
// pieces counts as one violation.
func ShapeViolations(printed, target *grid.Field) int {
	tBuf, pBuf := leaseLabels(len(target.Data)), leaseLabels(len(printed.Data))
	defer labelBufs.Put(tBuf)
	defer labelBufs.Put(pBuf)
	tLabels, pLabels := *tBuf, *pBuf
	tN, pN := labelInto(tLabels, target), labelInto(pLabels, printed)
	if tN == 0 {
		return pN // everything printed is stray
	}

	// For every printed component: the set of target components it
	// touches. For every target component: the set of printed
	// components covering it.
	pTouches := make([]map[int32]bool, pN+1)
	tCovered := make([]map[int32]bool, tN+1)
	for i := range tLabels {
		tl, pl := tLabels[i], pLabels[i]
		if pl != 0 && tl != 0 {
			if pTouches[pl] == nil {
				pTouches[pl] = make(map[int32]bool)
			}
			pTouches[pl][tl] = true
			if tCovered[tl] == nil {
				tCovered[tl] = make(map[int32]bool)
			}
			tCovered[tl][pl] = true
		}
	}

	viol := 0
	for pl := int32(1); pl <= int32(pN); pl++ {
		switch n := len(pTouches[pl]); {
		case n == 0:
			viol++ // stray printing
		case n > 1:
			viol += n - 1 // bridging n target shapes
		}
	}
	for tl := int32(1); tl <= int32(tN); tl++ {
		switch n := len(tCovered[tl]); {
		case n == 0:
			viol++ // target shape entirely missing
		case n > 1:
			viol += n - 1 // shape broken into n pieces
		}
	}
	return viol
}

// Report aggregates one evaluation of a mask.
type Report struct {
	EPEViolations   int
	PVBandNM2       float64
	ShapeViolations int
	RuntimeSec      float64
}

// Score computes the contest objective (Eq. 18).
func (r Report) Score() float64 {
	return r.RuntimeSec + 4*r.PVBandNM2 + 5000*float64(r.EPEViolations) + 10000*float64(r.ShapeViolations)
}

// String summarises the report.
func (r Report) String() string {
	return fmt.Sprintf("#EPE=%d PVB=%.0fnm² ShapeViol=%d RT=%.1fs Score=%.0f",
		r.EPEViolations, r.PVBandNM2, r.ShapeViolations, r.RuntimeSec, r.Score())
}
