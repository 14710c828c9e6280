package gds

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"lsopc/internal/geom"
	"lsopc/internal/layouts"
)

func TestReal8RoundTrip(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 1e-9, 1e-3, 0.5, 1024, -3.75, 6.25e-10} {
		got := real8Value(real8(f))
		if math.Abs(got-f) > math.Abs(f)*1e-12 {
			t.Errorf("real8 round trip %g → %g", f, got)
		}
	}
}

func TestReal8Property(t *testing.T) {
	prop := func(f float64) bool {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
		// Keep within GDSII real range.
		f = math.Mod(f, 1e12)
		got := real8Value(real8(f))
		return math.Abs(got-f) <= math.Abs(f)*1e-10+1e-300
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReal8KnownEncoding(t *testing.T) {
	// 1e-9 in GDSII reals is the canonical db-unit value: 0x3944B82FA09B5A54
	// is the standard encoding (e.g. from KLayout output).
	if got := real8(1e-9); got != 0x3944B82FA09B5A54 && math.Abs(real8Value(got)-1e-9) > 1e-24 {
		t.Fatalf("real8(1e-9) = %#x (decodes to %g)", got, real8Value(got))
	}
}

func sampleLayout() *geom.Layout {
	return &geom.Layout{
		Name: "B1", W: 2048, H: 2048,
		Rects: []geom.Rect{
			geom.NewRect(100, 100, 200, 400),
			geom.NewRect(300, 100, 360, 400),
		},
		Polys: []geom.Polygon{geom.NewPolygon(
			geom.Point{X: 500, Y: 500}, geom.Point{X: 700, Y: 500},
			geom.Point{X: 700, Y: 560}, geom.Point{X: 560, Y: 560},
			geom.Point{X: 560, Y: 700}, geom.Point{X: 500, Y: 700},
		)},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	l := sampleLayout()
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, l.W, l.H)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "B1" {
		t.Fatalf("structure name %q", got.Name)
	}
	// Rects come back as 4-vertex polygons; total shape count and area
	// must match exactly.
	if len(got.Polys) != 3 {
		t.Fatalf("boundary count %d, want 3", len(got.Polys))
	}
	if got.Area() != l.Area() {
		t.Fatalf("area %d, want %d", got.Area(), l.Area())
	}
	if got.W != 2048 || got.H != 2048 {
		t.Fatalf("canvas %dx%d", got.W, got.H)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadAutoCanvas(t *testing.T) {
	l := sampleLayout()
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := l.Bounds()
	if got.W != b.X1 || got.H != b.Y1 {
		t.Fatalf("auto canvas %dx%d, want %dx%d", got.W, got.H, b.X1, b.Y1)
	}
}

func TestWriteDeterministic(t *testing.T) {
	l := sampleLayout()
	var a, b bytes.Buffer
	if err := Write(&a, l); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, l); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("GDS output must be byte-deterministic")
	}
}

func TestWriteUnnamedLayout(t *testing.T) {
	l := &geom.Layout{W: 100, H: 100, Rects: []geom.Rect{geom.NewRect(1, 1, 9, 9)}}
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "TOP" {
		t.Fatalf("default structure name %q", got.Name)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": {0x00},
		"bad length":       {0x00, 0x02, 0x00, 0x00},
		"truncated body":   {0x00, 0x08, recHeader, dtInt16, 0x02},
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data), 0, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A stream that ends without ENDLIB.
	var buf bytes.Buffer
	g := &writer{w: &buf}
	g.int16Rec(recHeader, 600)
	if _, err := Read(bytes.NewReader(buf.Bytes()), 0, 0); err == nil {
		t.Error("missing ENDLIB accepted")
	}
}

func TestNegativeCoordinates(t *testing.T) {
	// GDS uses signed 32-bit coordinates; negative values must survive.
	l := &geom.Layout{Name: "n", W: 100, H: 100,
		Polys: []geom.Polygon{geom.NewPolygon(
			geom.Point{X: -50, Y: -50}, geom.Point{X: 10, Y: -50},
			geom.Point{X: 10, Y: 10}, geom.Point{X: -50, Y: 10},
		)}}
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.Polys[0].Pts[0] != (geom.Point{X: -50, Y: -50}) {
		t.Fatalf("negative coordinate lost: %+v", got.Polys[0].Pts[0])
	}
}

func TestBenchmarksThroughGDS(t *testing.T) {
	// The whole synthetic suite must survive GDS round trips.
	for _, id := range []string{"B1", "B7", "B10"} {
		l := mustBenchmark(t, id)
		var buf bytes.Buffer
		if err := Write(&buf, l); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got, err := Read(&buf, l.W, l.H)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got.Area() != l.Area() {
			t.Fatalf("%s: area %d, want %d", id, got.Area(), l.Area())
		}
	}
}

func mustBenchmark(t *testing.T, id string) *geom.Layout {
	t.Helper()
	s, err := layouts.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return s.MustBuild()
}

// FuzzReadGDS feeds the reader arbitrary streams, seeded from Write
// output: a malformed stream must return an error, never panic or hang,
// and a stream it accepts must hold only polygons of at least three
// vertices that survive a Write/Read round trip unchanged.
func FuzzReadGDS(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleLayout()); err != nil {
		f.Fatal(err)
	}
	stream := buf.Bytes()
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add(stream[:len(stream)-4]) // no ENDLIB
	buf.Reset()
	if err := Write(&buf, &geom.Layout{Name: "empty", W: 64, H: 64}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0x00, 0x04, recEndLib, dtNone})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Read(bytes.NewReader(data), 0, 0)
		if err != nil {
			return
		}
		if len(l.Rects) != 0 {
			t.Fatalf("reader produced %d rectangles; boundaries read back as polygons", len(l.Rects))
		}
		for i, p := range l.Polys {
			if len(p.Pts) < 3 {
				t.Fatalf("polygon %d has %d vertices", i, len(p.Pts))
			}
		}
		var out bytes.Buffer
		if err := Write(&out, l); err != nil {
			return // e.g. a polygon too long for one record once re-closed
		}
		again, err := Read(bytes.NewReader(out.Bytes()), l.W, l.H)
		if err != nil {
			t.Fatalf("re-reading the written layout: %v", err)
		}
		if len(again.Polys) != len(l.Polys) {
			t.Fatalf("round trip: %d polygons, want %d", len(again.Polys), len(l.Polys))
		}
		for i, p := range l.Polys {
			q := again.Polys[i].Pts
			if len(q) != len(p.Pts) {
				t.Fatalf("round trip: polygon %d has %d vertices, want %d", i, len(q), len(p.Pts))
			}
			for j := range q {
				if q[j] != p.Pts[j] {
					t.Fatalf("round trip: polygon %d vertex %d = %v, want %v", i, j, q[j], p.Pts[j])
				}
			}
		}
	})
}
