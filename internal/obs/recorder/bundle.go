package recorder

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"lsopc/internal/obs"
	"lsopc/internal/solve"
)

// Bundle file names. Every bundle contains ManifestFile; the rest are
// present when their source was available at capture time and are
// listed in Manifest.Files.
const (
	ManifestFile   = "manifest.json"
	EventsFile     = "events.jsonl"
	RuntimeFile    = "runtime.jsonl"
	GoroutinesFile = "goroutines.txt"
	HeapFile       = "heap.pb.gz"
	CPUFile        = "cpu.pb.gz"
	RunFile        = "run.json"
	CheckpointFile = "checkpoint.ckpt"
	MetricsFile    = "metrics.txt"
)

// ManifestSchema is the current bundle manifest schema version.
const ManifestSchema = 1

// Manifest indexes a postmortem bundle: what triggered it, when, and
// which files it contains.
type Manifest struct {
	Schema  int    `json:"schema"`
	RunID   string `json:"run_id"`
	Trigger string `json:"trigger"`
	TimeNS  int64  `json:"time_ns"`
	// Tile / Window identify the aborted tile for tiled runs.
	Tile   int    `json:"tile,omitempty"`
	Window string `json:"window,omitempty"`
	// Events is the number of event-tail lines in events.jsonl.
	Events int `json:"events"`
	// CheckpointIter is the resumable checkpoint's global iteration
	// count (0 when no checkpoint was captured).
	CheckpointIter int `json:"checkpoint_iter,omitempty"`
	// Files lists the bundle's contents (manifest included).
	Files []string `json:"files"`
	// Notes records non-fatal capture degradations (e.g. the CPU
	// profiler was already running).
	Notes []string `json:"notes,omitempty"`
}

// runDump is the run.json payload: the registry's view of the captured
// run and its tile children at capture time.
type runDump struct {
	Run      obs.RunState       `json:"run"`
	Tail     []obs.RunIterPoint `json:"tail,omitempty"`
	Children []obs.RunState     `json:"children,omitempty"`
}

// writeBundle assembles the bundle under dir. Called with capMu held.
func (r *Recorder) writeBundle(dir, root string, a Anomaly, now time.Time) (*Manifest, error) {
	man := &Manifest{
		Schema:  ManifestSchema,
		RunID:   a.RunID,
		Trigger: a.Reason,
		TimeNS:  now.UnixNano(),
		Tile:    a.Tile,
		Window:  a.Window,
		Files:   []string{ManifestFile},
	}

	// Event tail.
	tail := r.Tail(root)
	man.Events = len(tail)
	if err := writeJSONL(filepath.Join(dir, EventsFile), len(tail), func(enc *json.Encoder, i int) error {
		return enc.Encode(&tail[i])
	}); err != nil {
		return nil, err
	}
	man.Files = append(man.Files, EventsFile)

	// Runtime snapshot ring (a fresh sample was pushed just before).
	snaps := r.snapshots()
	if err := writeJSONL(filepath.Join(dir, RuntimeFile), len(snaps), func(enc *json.Encoder, i int) error {
		return enc.Encode(&snaps[i])
	}); err != nil {
		return nil, err
	}
	man.Files = append(man.Files, RuntimeFile)

	// Goroutine dump (debug=2: full stacks with states).
	if err := writeProfile(filepath.Join(dir, GoroutinesFile), "goroutine", 2); err != nil {
		return nil, err
	}
	man.Files = append(man.Files, GoroutinesFile)

	// Heap profile (debug=0 writes the gzipped protobuf form).
	if err := writeProfile(filepath.Join(dir, HeapFile), "heap", 0); err != nil {
		return nil, err
	}
	man.Files = append(man.Files, HeapFile)

	// CPU profile slice. Only one CPU profile can run per process; if
	// one is already active (a live /debug/pprof/profile request, or a
	// test harness) degrade to a note rather than failing the capture.
	if r.cfg.CPUProfile > 0 {
		if err := captureCPU(filepath.Join(dir, CPUFile), r.cfg.CPUProfile); err != nil {
			man.Notes = append(man.Notes, fmt.Sprintf("cpu profile unavailable: %v", err))
		} else {
			man.Files = append(man.Files, CPUFile)
		}
	}

	// Run registry snapshot.
	if r.cfg.Runs != nil {
		if st, tail, ok := r.cfg.Runs.Run(root); ok {
			dump := runDump{Run: st, Tail: tail}
			for _, cid := range st.Children {
				if cst, _, ok := r.cfg.Runs.Run(cid); ok {
					dump.Children = append(dump.Children, cst)
				}
			}
			if err := writeJSONFile(filepath.Join(dir, RunFile), &dump); err != nil {
				return nil, err
			}
			man.Files = append(man.Files, RunFile)
		} else {
			man.Notes = append(man.Notes, fmt.Sprintf("run %q not in registry", root))
		}
	}

	// Resumable checkpoint of the aborted solver state.
	if a.Checkpoint != nil {
		if err := solve.SaveCheckpoint(filepath.Join(dir, CheckpointFile), a.Checkpoint); err != nil {
			return nil, err
		}
		man.Files = append(man.Files, CheckpointFile)
		man.CheckpointIter = a.Checkpoint.Offset + a.Checkpoint.Iter
	}

	// Metrics registry text dump.
	mf, err := os.Create(filepath.Join(dir, MetricsFile))
	if err != nil {
		return nil, err
	}
	if err := r.reg.WriteText(mf); err != nil {
		mf.Close()
		return nil, err
	}
	if err := mf.Close(); err != nil {
		return nil, err
	}
	man.Files = append(man.Files, MetricsFile)

	if err := writeJSONFile(filepath.Join(dir, ManifestFile), man); err != nil {
		return nil, err
	}
	return man, nil
}

// Open reads and validates a bundle directory's manifest: schema,
// required identity fields, and that every listed file exists.
func Open(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("recorder: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("recorder: %s: %w", ManifestFile, err)
	}
	if man.Schema != ManifestSchema {
		return nil, fmt.Errorf("recorder: %s: schema %d, want %d", ManifestFile, man.Schema, ManifestSchema)
	}
	if man.RunID == "" || man.Trigger == "" {
		return nil, fmt.Errorf("recorder: %s: missing run_id or trigger", ManifestFile)
	}
	for _, f := range man.Files {
		// filepath.Base keeps "." and "..", which would name the bundle
		// directory itself or its parent.
		if f == "." || f == ".." || filepath.Base(f) != f {
			return nil, fmt.Errorf("recorder: %s: invalid file entry %q", ManifestFile, f)
		}
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			return nil, fmt.Errorf("recorder: bundle missing %s: %w", f, err)
		}
	}
	return &man, nil
}

func writeJSONL(path string, n int, encode func(*json.Encoder, int) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := 0; i < n; i++ {
		if err := encode(enc, i); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeProfile(path, name string, debug int) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("recorder: no %s profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteTo(f, debug); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func captureCPU(path string, d time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	time.Sleep(d)
	pprof.StopCPUProfile()
	return f.Close()
}
