package render

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lsopc/internal/grid"
)

func TestWritePGMHeaderAndSize(t *testing.T) {
	f := grid.NewField(4, 3)
	f.Set(0, 0, 1)
	var buf bytes.Buffer
	if err := WritePGM(&buf, f, 0, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P5\n4 3\n255\n")) {
		t.Fatalf("bad header: %q", out[:12])
	}
	pixels := out[len("P5\n4 3\n255\n"):]
	if len(pixels) != 12 {
		t.Fatalf("pixel payload %d bytes, want 12", len(pixels))
	}
	if pixels[0] != 255 {
		t.Fatalf("first pixel = %d, want 255", pixels[0])
	}
	if pixels[1] != 0 {
		t.Fatalf("second pixel = %d, want 0", pixels[1])
	}
}

func TestWritePGMClampsRange(t *testing.T) {
	f := grid.FieldFromData(3, 1, []float64{-5, 0.5, 7})
	var buf bytes.Buffer
	if err := WritePGM(&buf, f, 0, 1); err != nil {
		t.Fatal(err)
	}
	px := buf.Bytes()[len("P5\n3 1\n255\n"):]
	if px[0] != 0 || px[2] != 255 {
		t.Fatalf("clamping failed: %v", px)
	}
	if px[1] != 128 {
		t.Fatalf("midpoint = %d, want 128", px[1])
	}
}

func TestWritePGMRejectsBadRange(t *testing.T) {
	f := grid.NewField(2, 2)
	var buf bytes.Buffer
	if err := WritePGM(&buf, f, 1, 1); err == nil {
		t.Fatal("degenerate range accepted")
	}
}

func TestSavePGM(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mask.pgm")
	f := grid.NewField(8, 8)
	f.Fill(1)
	if err := SavePGM(path, f, 0, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("P5\n8 8\n255\n")) {
		t.Fatal("saved file malformed")
	}
}

func TestASCIIShapeAndRamp(t *testing.T) {
	f := grid.NewField(32, 32)
	for y := 0; y < 32; y++ {
		for x := 16; x < 32; x++ {
			f.Set(x, y, 1)
		}
	}
	art := ASCII(f, 16, 0, 1)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 8 { // 32 rows / (2*2 step)
		t.Fatalf("line count = %d", len(lines))
	}
	for _, l := range lines {
		if len(l) != 16 {
			t.Fatalf("line width = %d, want 16", len(l))
		}
		if l[0] != ' ' || l[15] != '@' {
			t.Fatalf("ramp endpoints wrong in %q", l)
		}
	}
}

func TestASCIISmallFieldNoDownsample(t *testing.T) {
	f := grid.NewField(4, 4)
	art := ASCII(f, 80, 0, 1)
	if len(strings.Split(strings.TrimRight(art, "\n"), "\n")) != 2 {
		t.Fatal("4-row field should render 2 terminal rows")
	}
}

func TestContourOverlayASCIISymbols(t *testing.T) {
	const n = 16
	target := grid.NewField(n, n)
	for y := 4; y < 12; y++ {
		for x := 4; x < 12; x++ {
			target.Set(x, y, 1)
		}
	}
	// Printed image matches the target exactly.
	art := ContourOverlayASCII(target, target, n)
	if !strings.Contains(art, "+") {
		t.Fatal("matching print must show '+' contour")
	}
	if strings.Contains(art, "x") {
		t.Fatal("matching print must not show missing contour 'x'")
	}
	// Nothing printed: contour renders as 'x', no '#'.
	empty := grid.NewField(n, n)
	art = ContourOverlayASCII(target, empty, n)
	if !strings.Contains(art, "x") || strings.Contains(art, "#") || strings.Contains(art, "+") {
		t.Fatalf("missing print rendering wrong:\n%s", art)
	}
}
