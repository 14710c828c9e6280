package render

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"

	"lsopc/internal/grid"
)

// ReadPGM reads an 8-bit binary PGM (P5) into a field with values
// scaled to [0, 1]. It accepts the files WritePGM produces and any
// standard P5 with maxval ≤ 255.
func ReadPGM(r io.Reader) (*grid.Field, error) {
	br := bufio.NewReader(r)
	magic, err := pgmToken(br)
	if err != nil {
		return nil, err
	}
	if magic != "P5" {
		return nil, fmt.Errorf("render: unsupported PGM magic %q (want P5)", magic)
	}
	var w, h, maxval int
	for _, dst := range []*int{&w, &h, &maxval} {
		tok, err := pgmToken(br)
		if err != nil {
			return nil, err
		}
		if _, err := fmt.Sscanf(tok, "%d", dst); err != nil {
			return nil, fmt.Errorf("render: bad PGM header token %q", tok)
		}
	}
	if w <= 0 || h <= 0 || h > math.MaxInt/w {
		return nil, fmt.Errorf("render: bad PGM dimensions %dx%d", w, h)
	}
	if maxval <= 0 || maxval > 255 {
		return nil, fmt.Errorf("render: unsupported PGM maxval %d", maxval)
	}
	// Read the payload as it arrives instead of allocating the declared
	// w·h bytes up front: a header is untrusted and may claim terabytes.
	pixels, err := io.ReadAll(io.LimitReader(br, int64(w*h)))
	if err != nil {
		return nil, fmt.Errorf("render: reading PGM payload: %w", err)
	}
	if len(pixels) != w*h {
		return nil, fmt.Errorf("render: short PGM payload: %d of %d bytes: %w", len(pixels), w*h, io.ErrUnexpectedEOF)
	}
	f := grid.NewField(w, h)
	scale := 1 / float64(maxval)
	for i, p := range pixels {
		f.Data[i] = float64(p) * scale
	}
	return f, nil
}

// LoadPGM reads a PGM file from disk.
func LoadPGM(path string) (*grid.Field, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("render: %w", err)
	}
	defer file.Close()
	return ReadPGM(file)
}

// pgmToken reads the next whitespace-delimited header token, skipping
// '#' comments. After the maxval token exactly one whitespace byte
// separates the header from the payload, which this tokenizer consumes.
func pgmToken(br *bufio.Reader) (string, error) {
	var tok []byte
	inComment := false
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && len(tok) > 0 {
				return string(tok), nil
			}
			return "", fmt.Errorf("render: truncated PGM header: %w", err)
		}
		switch {
		case inComment:
			if b == '\n' {
				inComment = false
			}
		case b == '#' && len(tok) == 0:
			inComment = true
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}
