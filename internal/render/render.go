// Package render writes fields as images and terminal art: binary PGM
// (portable graymap) files for masks, aerial images and PV bands, plus
// compact ASCII previews for logs and examples. This replaces the
// contest kit's image dumps used for the paper's Figs. 1 and 2.
package render

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"lsopc/internal/grid"
)

// WritePGM writes f as an 8-bit binary PGM, mapping [lo, hi] to 0…255
// with clamping. Use lo=0, hi=1 for masks and resist images.
func WritePGM(w io.Writer, f *grid.Field, lo, hi float64) error {
	if hi <= lo {
		return fmt.Errorf("render: invalid range [%g,%g]", lo, hi)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", f.W, f.H)
	scale := 255 / (hi - lo)
	for _, v := range f.Data {
		p := (v - lo) * scale
		if p < 0 {
			p = 0
		}
		if p > 255 {
			p = 255
		}
		bw.WriteByte(byte(p + 0.5))
	}
	return bw.Flush()
}

// SavePGM writes f to the named file as PGM.
func SavePGM(path string, f *grid.Field, lo, hi float64) error {
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	defer file.Close()
	if err := WritePGM(file, f, lo, hi); err != nil {
		return err
	}
	return file.Close()
}

// ASCII renders f as terminal art, downsampling to at most maxCols
// columns. Values map to the ramp " .:-=+*#%@" over [lo, hi].
func ASCII(f *grid.Field, maxCols int, lo, hi float64) string {
	const ramp = " .:-=+*#%@"
	if maxCols < 1 {
		maxCols = 1
	}
	step := 1
	for f.W/step > maxCols {
		step++
	}
	var b strings.Builder
	scale := float64(len(ramp)-1) / (hi - lo)
	// Terminal cells are ~2× taller than wide; sample rows at 2× step.
	for y := 0; y < f.H; y += 2 * step {
		for x := 0; x < f.W; x += step {
			// Box-average the cell for stable previews.
			var s float64
			n := 0
			for dy := 0; dy < 2*step && y+dy < f.H; dy++ {
				for dx := 0; dx < step && x+dx < f.W; dx++ {
					s += f.At(x+dx, y+dy)
					n++
				}
			}
			v := (s/float64(n) - lo) * scale
			if v < 0 {
				v = 0
			}
			if v > float64(len(ramp)-1) {
				v = float64(len(ramp) - 1)
			}
			b.WriteByte(ramp[int(v+0.5)])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ContourOverlayASCII draws the printed image with the target contour
// marked: '#' printed, '+' target contour over printed, 'x' target
// contour over background, '.' background.
func ContourOverlayASCII(target, printed *grid.Field, maxCols int) string {
	if maxCols < 1 {
		maxCols = 1
	}
	step := 1
	for target.W/step > maxCols {
		step++
	}
	// The contour is the inner boundary of the target: inside pixels
	// with at least one outside 4-neighbour.
	isContour := func(x, y int) bool {
		if target.At(x, y) <= 0.5 {
			return false
		}
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || nx >= target.W || ny < 0 || ny >= target.H {
				continue
			}
			if target.At(nx, ny) <= 0.5 {
				return true
			}
		}
		return false
	}
	var b strings.Builder
	for y := 0; y < target.H; y += 2 * step {
		for x := 0; x < target.W; x += step {
			contour, printedHere := false, false
			for dy := 0; dy < 2*step && y+dy < target.H && !contour; dy++ {
				for dx := 0; dx < step && x+dx < target.W; dx++ {
					if isContour(x+dx, y+dy) {
						contour = true
						break
					}
				}
			}
			for dy := 0; dy < 2*step && y+dy < target.H && !printedHere; dy++ {
				for dx := 0; dx < step && x+dx < target.W; dx++ {
					if printed.At(x+dx, y+dy) > 0.5 {
						printedHere = true
						break
					}
				}
			}
			switch {
			case contour && printedHere:
				b.WriteByte('+')
			case contour:
				b.WriteByte('x')
			case printedHere:
				b.WriteByte('#')
			default:
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
