package render

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"lsopc/internal/grid"
)

func TestPGMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := grid.NewField(16, 9)
	for i := range f.Data {
		f.Data[i] = float64(rng.Intn(256)) / 255
	}
	var buf bytes.Buffer
	if err := WritePGM(&buf, f, 0, 1); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 16 || got.H != 9 {
		t.Fatalf("shape %dx%d", got.W, got.H)
	}
	if !got.Equal(f, 1.0/255/2+1e-9) {
		t.Fatal("round trip lost more than quantisation error")
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.pgm")
	f := grid.NewField(8, 8)
	f.Set(3, 3, 1)
	if err := SavePGM(path, f, 0, 1); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPGM(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(3, 3) != 1 || got.At(0, 0) != 0 {
		t.Fatal("pixel values wrong after load")
	}
}

func TestReadPGMWithComments(t *testing.T) {
	src := "P5\n# a comment line\n2 1\n# another\n255\n\xff\x00"
	f, err := ReadPGM(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.Data[0] != 1 || f.Data[1] != 0 {
		t.Fatalf("values %v", f.Data)
	}
}

func TestReadPGMErrors(t *testing.T) {
	cases := map[string]string{
		"bad magic":   "P2\n2 2\n255\n....",
		"no header":   "P5",
		"zero dims":   "P5\n0 2\n255\n",
		"big maxval":  "P5\n1 1\n65535\n\x00\x00",
		"short data":  "P5\n4 4\n255\n\x00\x01",
		"empty input": "",
		// Headers claiming more pixels than memory holds, or than an
		// int can count, must fail on the missing payload.
		"huge dims":     "P5 6 6666666666666 6",
		"overflow dims": "P5\n4611686018427387904 4\n255\n\x00",
	}
	for name, src := range cases {
		if _, err := ReadPGM(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadPGMMissingFile(t *testing.T) {
	if _, err := LoadPGM(filepath.Join(t.TempDir(), "nope.pgm")); err == nil {
		t.Fatal("missing file accepted")
	}
}
