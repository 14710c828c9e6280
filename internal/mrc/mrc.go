// Package mrc implements mask rule checking — the manufacturability
// constraints a mask shop imposes before accepting a mask for writing.
// ILT-generated masks are the classic MRC offenders (the paper's §I
// motivation), so the checker operates directly on binary mask rasters:
//
//   - minimum feature width (narrowest run of mask pixels),
//   - minimum space (narrowest run of background between features),
//   - minimum area (smallest island),
//   - minimum enclosed-hole area.
//
// Violations are reported with locations so they can be fed back into a
// cleanup pass or inspected visually.
package mrc

import (
	"fmt"

	"lsopc/internal/grid"
)

// Rules is a mask rule set in nm. Zero values disable the check.
type Rules struct {
	MinWidthNM float64 // minimum printed-feature width
	MinSpaceNM float64 // minimum gap between features
	MinAreaNM2 float64 // minimum island area
	MinHoleNM2 float64 // minimum enclosed hole area
	PixelNM    float64 // raster pitch
}

// DefaultRules returns a rule set representative of contest-era mask
// shops (40 nm min width/space, 60×60 nm² min area) at the given pixel
// pitch.
func DefaultRules(pixelNM float64) Rules {
	return Rules{
		MinWidthNM: 40,
		MinSpaceNM: 40,
		MinAreaNM2: 3600,
		MinHoleNM2: 3600,
		PixelNM:    pixelNM,
	}
}

// Validate checks the rule set.
func (r Rules) Validate() error {
	if r.PixelNM <= 0 {
		return fmt.Errorf("mrc: pixel pitch must be positive, got %g", r.PixelNM)
	}
	if r.MinWidthNM < 0 || r.MinSpaceNM < 0 || r.MinAreaNM2 < 0 || r.MinHoleNM2 < 0 {
		return fmt.Errorf("mrc: rule values must be ≥ 0")
	}
	return nil
}

// ViolationKind classifies a mask rule violation.
type ViolationKind int

const (
	// WidthViolation: a feature is narrower than MinWidthNM.
	WidthViolation ViolationKind = iota
	// SpaceViolation: two features are closer than MinSpaceNM.
	SpaceViolation
	// AreaViolation: an island is smaller than MinAreaNM2.
	AreaViolation
	// HoleViolation: an enclosed hole is smaller than MinHoleNM2.
	HoleViolation
)

// String implements fmt.Stringer.
func (k ViolationKind) String() string {
	switch k {
	case WidthViolation:
		return "width"
	case SpaceViolation:
		return "space"
	case AreaViolation:
		return "area"
	case HoleViolation:
		return "hole"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Violation is one rule failure with its location (pixel coordinates)
// and measured value (nm or nm²).
type Violation struct {
	Kind     ViolationKind
	X, Y     int
	Measured float64
	Limit    float64
}

// String formats the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("%s violation at (%d,%d): %.0f < %.0f", v.Kind, v.X, v.Y, v.Measured, v.Limit)
}

// Check runs all enabled rules against the binary mask and returns the
// violations found. Runs in O(pixels) per rule.
func Check(mask *grid.Field, rules Rules) ([]Violation, error) {
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	var out []Violation
	if rules.MinWidthNM > 0 {
		out = append(out, runRule(mask, rules, true)...)
	}
	if rules.MinSpaceNM > 0 {
		out = append(out, runRule(mask, rules, false)...)
	}
	if rules.MinAreaNM2 > 0 || rules.MinHoleNM2 > 0 {
		out = append(out, componentRules(mask, rules)...)
	}
	return out, nil
}

// runRule scans rows and columns for runs shorter than the limit.
// checkMask=true measures mask runs (width rule); false measures
// interior background runs bounded by mask on both sides (space rule).
func runRule(mask *grid.Field, rules Rules, checkMask bool) []Violation {
	limit := rules.MinWidthNM
	kind := WidthViolation
	if !checkMask {
		limit = rules.MinSpaceNM
		kind = SpaceViolation
	}
	minPx := int(limit / rules.PixelNM)
	if float64(minPx)*rules.PixelNM < limit {
		minPx++
	}
	var out []Violation
	seen := make(map[[2]int]bool) // dedupe by run start

	is := func(x, y int) bool { return (mask.At(x, y) > 0.5) == checkMask }

	// Horizontal runs.
	for y := 0; y < mask.H; y++ {
		x := 0
		for x < mask.W {
			if !is(x, y) {
				x++
				continue
			}
			x0 := x
			for x < mask.W && is(x, y) {
				x++
			}
			runLen := x - x0
			interior := checkMask || (x0 > 0 && x < mask.W)
			if interior && runLen < minPx {
				key := [2]int{x0, y}
				if !seen[key] {
					seen[key] = true
					out = append(out, Violation{
						Kind: kind, X: x0, Y: y,
						Measured: float64(runLen) * rules.PixelNM,
						Limit:    limit,
					})
				}
			}
		}
	}
	// Vertical runs.
	for x := 0; x < mask.W; x++ {
		y := 0
		for y < mask.H {
			if !is(x, y) {
				y++
				continue
			}
			y0 := y
			for y < mask.H && is(x, y) {
				y++
			}
			runLen := y - y0
			interior := checkMask || (y0 > 0 && y < mask.H)
			if interior && runLen < minPx {
				key := [2]int{x, -y0 - 1}
				if !seen[key] {
					seen[key] = true
					out = append(out, Violation{
						Kind: kind, X: x, Y: y0,
						Measured: float64(runLen) * rules.PixelNM,
						Limit:    limit,
					})
				}
			}
		}
	}
	return out
}

// componentRules checks island and hole areas.
func componentRules(mask *grid.Field, rules Rules) []Violation {
	var out []Violation
	px2 := rules.PixelNM * rules.PixelNM

	if rules.MinAreaNM2 > 0 {
		labels, n := label4(mask, true)
		sizes, firsts := componentStats(labels, n, mask.W)
		for l := 1; l <= n; l++ {
			if a := float64(sizes[l]) * px2; a < rules.MinAreaNM2 {
				out = append(out, Violation{
					Kind: AreaViolation, X: firsts[l][0], Y: firsts[l][1],
					Measured: a, Limit: rules.MinAreaNM2,
				})
			}
		}
	}
	if rules.MinHoleNM2 > 0 {
		labels, n := label4(mask, false)
		sizes, firsts := componentStats(labels, n, mask.W)
		border := borderLabels(labels, mask.W, mask.H)
		for l := 1; l <= n; l++ {
			if border[l] {
				continue // outer background, not a hole
			}
			if a := float64(sizes[l]) * px2; a < rules.MinHoleNM2 {
				out = append(out, Violation{
					Kind: HoleViolation, X: firsts[l][0], Y: firsts[l][1],
					Measured: a, Limit: rules.MinHoleNM2,
				})
			}
		}
	}
	return out
}

// label4 labels 4-connected components of mask pixels (set=true) or
// background pixels (set=false).
func label4(mask *grid.Field, set bool) ([]int32, int) {
	w, h := mask.W, mask.H
	labels := make([]int32, w*h)
	next := int32(0)
	var stack []int32
	in := func(i int) bool { return (mask.Data[i] > 0.5) == set }
	for start := range mask.Data {
		if !in(start) || labels[start] != 0 {
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
				if in(j) && labels[j] == 0 {
					labels[j] = next
					stack = append(stack, int32(j))
				}
			}
		}
	}
	return labels, int(next)
}

// componentStats returns per-label pixel counts and first-pixel
// coordinates.
func componentStats(labels []int32, n, w int) ([]int, [][2]int) {
	sizes := make([]int, n+1)
	firsts := make([][2]int, n+1)
	seen := make([]bool, n+1)
	for i, l := range labels {
		if l == 0 {
			continue
		}
		sizes[l]++
		if !seen[l] {
			seen[l] = true
			firsts[l] = [2]int{i % w, i / w}
		}
	}
	return sizes, firsts
}

// borderLabels marks labels touching the grid border.
func borderLabels(labels []int32, w, h int) []bool {
	max := int32(0)
	for _, l := range labels {
		if l > max {
			max = l
		}
	}
	out := make([]bool, max+1)
	for x := 0; x < w; x++ {
		out[labels[x]] = true
		out[labels[(h-1)*w+x]] = true
	}
	for y := 0; y < h; y++ {
		out[labels[y*w]] = true
		out[labels[y*w+w-1]] = true
	}
	return out
}
