# Build/test entry points for the lsopc repository.
#
#   make build   - compile every package and command
#   make test    - full test suite, run twice in one process so a test
#               that only passes on a cold process-wide cache fails,
#               then five runs of the test that once held only on a
#               cold cache
#   make race    - race-detector run over the parallel execution layers
#   make vet     - static analysis
#   make bench   - the headline benchmarks behind the Table II claims,
#               then the two A/B speed gates of make benchgate
#   make trace   - instrumented runs (single-window level-set and
#               MOSAIC_exact baseline, and tiled, the tiled one with the
#               -serve live endpoint attached) + JSONL
#               trace validation (tracestats -check) + analytics (tracestats)
#               + Chrome/Perfetto timeline export + the live-telemetry
#               end-to-end smoke (SSE + /runs during a tiled run) and
#               the chrome-export golden test
#   make benchgate - the two A/B speed gates (cmd/benchgate):
#               coarse-to-fine B4 within 1.10 of full resolution, the
#               tiled sparse chip within 1.67 of one monolithic window
#   make benchsmoke - the repository benchmark's own smoke test; bench/
#               is a nested module that the root go test never compiles
#   make fuzz    - 10 s per fuzz target, every Fuzz* function of every
#               package (untrusted-input decoders, kernels against their
#               reference loops, trace folds, the health replay against
#               the live watchdog, resume offsets)
#   make crossarch - the cross-arch leg: GOARCH=arm64 go vet ./... proves
#               every package builds without the amd64 assembly (FFT
#               butterflies, column-pass movement kernels and real-row
#               unpack, resist sigmoid and axpy, |∇ψ| and the mask, the
#               litho per-pixel and band loops, the optics band-box
#               loops, the core tail sweeps, CPU probe), GOARCH=386 go
#               test of the six packages with kernels (fft, grid,
#               levelset, litho, core, optics) runs their Go loops as
#               the selected kernels (natively on an amd64 host)
#   make ci      - build + vet + gofmt hygiene + test, the CI bundle
#   make check   - build + vet + test + race, the pre-commit bundle

GO ?= go

.PHONY: all build test race vet fmtcheck crossarch ci bench trace benchgate benchsmoke fuzz check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test -count=2 ./...
	$(GO) test -count=5 -run 'TestTraceEventKinds$$' .

# The packages whose correctness depends on goroutine scheduling: the
# engine worker pool, the batched FFT passes, the litho paths that fan
# kernels/corners across workers, the distance transform that fans its
# column and row passes across workers (levelset), the optimizer's
# fused level-set tail (core), the session runtime (pool + banks),
# the observability layer (shared sinks, atomic metrics), and the root
# package's concurrent-pipeline equivalence and trace-integrity tests.
race:
	$(GO) test -race ./internal/engine ./internal/fft ./internal/litho ./internal/levelset ./internal/core ./internal/pixelilt ./internal/rt ./internal/obs ./internal/obs/recorder ./internal/solve ./internal/tiling .

# Instrumented benchmark runs; fails if an emitted JSONL trace is
# malformed, missing any event family of the taxonomy (DESIGN.md §9),
# carries an unknown event kind (-strict) or violates the per-run
# invariants (run ids everywhere, per-run monotonic iterations), then
# prints the tracestats analytics report over the same trace. The
# baseline leg does the same for a MOSAIC_exact run under the watchdog,
# so the pixel baselines' iteration, corner and span events go through
# the strict check too. The tiled leg runs with -serve attached (flag smoke: server up for the whole
# run, graceful shutdown after) and its trace is exported to a
# Chrome/Perfetto timeline. The final leg is the live-telemetry e2e
# smoke — a tiled run observed over real HTTP must show per-tile
# progress on /runs and stream SSE events while in flight — plus the
# chrome-export golden-fixture test. The closing leg is the flight-
# recorder drill: a -poison-tile run must abort, leave a postmortem
# bundle with a resumable checkpoint under -flight-dir, emit a strict-
# valid capture event in its trace, and the bundle must be readable by
# tracestats -bundle. Every file goes into one mktemp -d directory
# (under $TMPDIR when set), removed when the recipe exits.
trace:
	@set -ex; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/lsopc -preset test -case B1 -iters 3 -health -tracefile $$d/trace.jsonl; \
	$(GO) run ./cmd/tracestats -check -strict -require iteration,corner,plan_cache,pool,span $$d/trace.jsonl; \
	$(GO) run ./cmd/tracestats $$d/trace.jsonl; \
	$(GO) run ./cmd/lsopc -preset test -case B1 -iters 3 -method MOSAIC_exact -health -tracefile $$d/trace-baseline.jsonl; \
	$(GO) run ./cmd/tracestats -check -strict -require iteration,corner,span $$d/trace-baseline.jsonl; \
	$(GO) run ./cmd/tracestats $$d/trace-baseline.jsonl; \
	$(GO) run ./cmd/benchgen -dir $$d/bench -chip 2x2 -cells B1,B4; \
	$(GO) run ./cmd/lsopc -preset test -glp $$d/bench/chip_2x2.glp -tiled -halo 256 -iters 3 -health -serve 127.0.0.1:0 -tracefile $$d/trace-tiled.jsonl; \
	$(GO) run ./cmd/tracestats -check -strict -require tile_start,tile_done,iteration,span $$d/trace-tiled.jsonl; \
	$(GO) run ./cmd/tracestats $$d/trace-tiled.jsonl; \
	$(GO) run ./cmd/tracestats -chrome $$d/trace-tiled.chrome.json $$d/trace-tiled.jsonl; \
	$(GO) test -count=1 -run 'TestLiveServerStreamsTiledRun' .; \
	$(GO) test -count=1 -run 'TestWriteChromeTrace' ./internal/obs/analyze; \
	if $(GO) run ./cmd/lsopc -preset test -glp $$d/bench/chip_2x2.glp -tiled -halo 256 -iters 3 -health -poison-tile 1 -flight-dir $$d/flight -tracefile $$d/trace-poison.jsonl; then \
		echo "trace: poisoned tiled run did NOT abort"; exit 1; \
	else \
		echo "trace: poisoned tile correctly aborted the run"; \
	fi; \
	for f in manifest.json events.jsonl goroutines.txt heap.pb.gz checkpoint.ckpt metrics.txt; do \
		if ! test -s $$d/flight/*/$$f; then \
			echo "trace: bundle is missing $$f"; exit 1; \
		fi; \
	done; echo "trace: postmortem bundle is complete"; \
	$(GO) run ./cmd/tracestats -check -strict -require tile_start,iteration,health,capture $$d/trace-poison.jsonl; \
	$(GO) run ./cmd/tracestats -bundle $$d/flight/*

# Perf-regression gate: cmd/benchgate times two A/B pairs and exits 1
# when either variant takes longer than its base times the bound. B4 at
# PresetTest, 10 iterations, coarse-to-fine at factor 2 must take at
# most 1.10 times full resolution (both float64). A sparse 4x4
# cell-array chip tiled must take at most 1.67 times one monolithic
# window: the >= 0.6·N speedup bound at N=1 worker (tiled <=
# monolithic/0.6), so on any N-worker host the gate only gets easier to
# clear. cmd/benchgate's unit test holds both bounds and the
# strict-greater rule, so a slowed variant trips it.
benchgate:
	$(GO) run ./cmd/benchgate

# The benchmark (bench/, run by bench/run.sh) is a module of its own, so
# the root build and tests never see it; its smoke test runs miniature
# workloads end to end and compiles every call the ladder makes, so an
# API change that breaks the benchmark fails here.
benchsmoke:
	cd bench && $(GO) test ./...

# Fuzz smoke: each Fuzz* target of every package runs for 10 s on its
# own (go test -fuzz accepts one target per call); go test -list finds
# them, so a new or deleted target needs no edit here. Minimising each
# new interesting input is capped at 200 runs: uncapped, shrinking one
# ~1.6 KB gob checkpoint can use up the whole 10 s. Failing inputs land
# in the package's testdata/fuzz directory, where the plain go test
# replays them.
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		list=$$($(GO) test -list '^Fuzz' $$pkg); \
		for t in $$(echo "$$list" | grep '^Fuzz'); do \
			echo "fuzz: $$pkg $$t"; \
			$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s -fuzzminimizetime 200x $$pkg; \
		done; \
	done

vet:
	$(GO) vet ./...

# The butterfly sweeps, the column passes' data movement (gathers,
# scatters, real-row pack) and the real-row unpack of internal/fft, the
# resist sigmoid and the axpy of internal/grid, |∇ψ| and the mask of
# internal/levelset, the per-pixel and band loops of internal/litho
# (SOCS reduce, adjoint product, gradient set, the resist
# sweep's cost and sensitivity pass, band rescale, Hermitian pairing),
# the band-box loops of internal/optics and the tail sweeps of
# internal/core have AVX2 assembly kernels on amd64 (chosen by the CPU
# probe in internal/grid) and Go loops everywhere else. amd64 vet
# (asmdecl) checks the assembly's frames and argument names; this leg
# builds and vets every package without the assembly, and runs those six
# packages' tests with the Go loops as the selected kernels.
crossarch:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/fft ./internal/grid ./internal/levelset ./internal/litho ./internal/core ./internal/optics

# Source-hygiene gate: gofmt must have nothing to reformat. gofmt -l
# exits 0 even when files need formatting, so the target fails on any
# output instead.
fmtcheck:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needs to reformat:"; echo "$$out"; exit 1; \
	fi

# The CI bundle: static analysis + formatting hygiene + tier-1 build and
# tests. GitHub Actions (.github/workflows/ci.yml) runs this target plus
# the heavier race/trace/benchgate legs.
ci: build vet fmtcheck test

bench:
	$(GO) test -run xxx -bench 'BenchmarkTable2PerCase|BenchmarkAerialExact|BenchmarkAerialFused|BenchmarkGradient$$|BenchmarkBatch' -benchmem ./...
	$(GO) run ./cmd/benchgate

check: build vet test race
