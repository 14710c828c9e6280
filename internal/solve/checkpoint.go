package solve

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// Checkpoint is the serialisable state of a run captured at an
// iteration boundary. It holds everything a bit-exact resume needs:
// the evolving fields (ψ or θ plus the CG memory), the driver's scalar
// bookkeeping (step scale, previous/best cost), the history recorded so
// far, the watchdog counters, and — for multi-resolution runs — the
// completed coarser levels' history and the level position. Snapshots
// are not checkpointed: a resumed run re-records snapshots only from
// its resume point onward.
//
// The optimizer loops consume no randomness, so no RNG state is
// captured; identical options plus a checkpoint reproduce the
// uninterrupted run exactly.
type Checkpoint struct {
	// Method tags the optimizer that produced the checkpoint
	// ("level-set" or a pixel-baseline variant name).
	Method string
	// Factor is the resolution level the run was in (grid downsample
	// factor; 1 = full resolution).
	Factor int
	// Iter is the next level-local iteration index.
	Iter int
	// Offset is the level's global iteration offset: the global
	// iteration number of its first step, so Offset + Iter is the
	// global iteration the run stopped at.
	Offset int
	// Scale is the adaptive step scale (λ_t for the level set).
	Scale    float64
	PrevCost float64
	HasPrev  bool
	BestCost float64
	Evals    int
	// History holds the current level's iterations recorded so far
	// (globally numbered).
	History []IterStats
	// Done holds the completed coarser levels' merged history.
	Done      []IterStats
	DoneEvals int
	Watchdog  *obs.WatchdogState
	// State maps the method's field names ("psi", "theta", …) to
	// cloned grids.
	State map[string]*grid.Field
}

// WriteCheckpoint gob-encodes a checkpoint. The encoding is binary, so
// NaN/Inf costs survive a round trip bitwise.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error {
	return gob.NewEncoder(w).Encode(cp)
}

// ErrCheckpointMismatch is wrapped by every error that rejects a
// well-formed checkpoint because it does not fit the run restoring it:
// another method, iteration offset or budget, a resolution level the
// run's schedule does not have, or a field of another grid size.
var ErrCheckpointMismatch = errors.New("solve: checkpoint does not match the run")

// ErrShapeMismatch is wrapped by every error that rejects a target,
// initial state or checkpoint field because it does not match the
// simulator grid.
var ErrShapeMismatch = errors.New("solve: target shape does not match simulator grid")

// ReadCheckpoint decodes a checkpoint written by WriteCheckpoint and
// rejects one whose fields no run could have produced (see validate).
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	cp := new(Checkpoint)
	if err := gob.NewDecoder(r).Decode(cp); err != nil {
		return nil, fmt.Errorf("solve: decoding checkpoint: %w", err)
	}
	if err := cp.validate(); err != nil {
		return nil, err
	}
	return cp, nil
}

// validate rejects a checkpoint that is malformed in itself: a negative
// iteration position, a State grid whose Data does not hold exactly
// W×H values, or a watchdog window cursor outside its window. Restoring
// one would panic or, since grid.Field.CopyFrom copies min(len) values,
// silently resume from a partly copied field. Whether a well-formed
// checkpoint fits the run (method, grid, level) is the Restore and
// Stepper.RestoreState checks.
func (cp *Checkpoint) validate() error {
	if cp.Iter < 0 {
		return fmt.Errorf("solve: checkpoint at negative iteration %d", cp.Iter)
	}
	for name, f := range cp.State {
		switch {
		case f == nil:
			return fmt.Errorf("solve: checkpoint state %q is nil", name)
		case f.W <= 0 || f.H <= 0 || len(f.Data)%f.W != 0 || len(f.Data)/f.W != f.H:
			return fmt.Errorf("solve: checkpoint state %q is %dx%d with %d values", name, f.W, f.H, len(f.Data))
		}
	}
	if wd := cp.Watchdog; wd != nil {
		if wd.WinLen < 0 || wd.WinLen > len(wd.Window) || wd.WinNext < 0 || wd.WinNext >= max(len(wd.Window), 1) {
			return fmt.Errorf("solve: checkpoint watchdog window %d/%d with cursor %d", wd.WinLen, len(wd.Window), wd.WinNext)
		}
	}
	return nil
}

// SaveCheckpoint writes a checkpoint to a file.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCheckpoint(f, cp); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCheckpoint reads a checkpoint from a file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// Cancelled is the error Driver.Run (and everything layered on it)
// returns when the context is cancelled at an iteration boundary. It
// carries the checkpoint captured at that boundary and unwraps to the
// context's error, so errors.Is(err, context.Canceled) works and
// errors.As recovers the checkpoint.
type Cancelled struct {
	Checkpoint *Checkpoint
	cause      error
}

func (c *Cancelled) Error() string {
	return fmt.Sprintf("solve: %s run cancelled at iteration %d: %v",
		c.Checkpoint.Method, c.Checkpoint.Offset+c.Checkpoint.Iter, c.cause)
}

// Unwrap returns the cancellation cause (usually context.Canceled or
// context.DeadlineExceeded).
func (c *Cancelled) Unwrap() error { return c.cause }
