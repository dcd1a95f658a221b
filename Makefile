# Tier-1 entry points. `make test` is the fast gate (short mode, seconds);
# `make test-full` runs everything including the ~40s experiment
# reproductions; `make test-race` puts the race detector on the concurrent
# fleet/scheduler/device/emulator paths and the live QRMI/qcsd/HTTP paths,
# then repeats the concurrent fleet tests twenty times.

GO ?= go

.PHONY: build test test-full test-race bench bench-json bench-diff fuzz-smoke vet vet-trace check

# Where bench-diff writes its fresh recording; override for parallel runs.
BENCH_FRESH ?= $(if $(TMPDIR),$(TMPDIR),/tmp)/hpcqc_bench_fresh.json

build:
	$(GO) build ./...

test:
	$(GO) test -short ./...

test-full:
	$(GO) test ./...

test-race:
	$(GO) test -race ./internal/daemon/... ./internal/admission/... ./internal/sched/... ./internal/device/... ./internal/emulator/... ./internal/qrmi/... ./cmd/qcsd/...
	$(GO) test -race -short ./internal/loadgen/... .
	$(GO) test -race -count=20 -run 'TestFleetConcurrent' ./internal/daemon

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# The benchmark selection behind bench-json and bench-diff: the replay and
# dispatch hot paths in the root package plus the program-cache/router
# primitives in internal/daemon, plus the wide-matrix sweep and saturation
# search that gate the capacity-planning engine.
BENCH_PATTERN = BenchmarkFleetDispatch|BenchmarkDaemonDispatch|BenchmarkLoadgen|BenchmarkProgramCache|BenchmarkWeightedRouterPick|BenchmarkSweepWideMatrix|BenchmarkSaturateSearch
BENCH_PKGS = . ./internal/daemon

# bench-json records the fleet-scaling and load-generation benchmark
# trajectory as machine-readable test2json events in BENCH_fleet.json, so
# regressions in the dispatch and replay hot paths are diffable across
# commits.
bench-json:
	$(GO) test -bench='$(BENCH_PATTERN)' \
		-benchmem -run='^$$' -json $(BENCH_PKGS) > BENCH_fleet.json

# bench-diff re-runs the bench-json suite into a scratch file and fails if
# any jobs/wall-second or cells/wall-second throughput metric regressed >20%
# against the committed BENCH_fleet.json — the CI gate that keeps the replay
# and sweep hot paths from sliding back — or if the sweep's peak_heap_mb rose
# >20% (benchdiff's lower-is-better rule: the bounded-memory contract). The
# untraced, saturated, affinity and priority replay benchmarks plus the
# wide-matrix sweep and saturation search are -required: renaming or
# dropping any of them must fail the gate, not skip it. The priority
# benchmark's interleaved slo-urgency/constant cost ratio is additionally
# capped at 10% by benchdiff's -priority-overhead rule.
bench-diff:
	$(GO) test -bench='$(BENCH_PATTERN)' \
		-benchmem -run='^$$' -json $(BENCH_PKGS) > $(BENCH_FRESH)
	$(GO) run ./cmd/benchdiff \
		-require BenchmarkLoadgenReplay,BenchmarkLoadgenReplaySaturated,BenchmarkLoadgenReplayAffinity,BenchmarkLoadgenReplayPriority,BenchmarkSweepWideMatrix,BenchmarkSaturateSearch \
		BENCH_fleet.json $(BENCH_FRESH)

# fuzz-smoke runs each trace-ingestion fuzz target for a fixed iteration
# count — a deterministic-duration CI pass over the JSONL reader and the
# SWF/sacct importers (Go fuzzing accepts exactly one -fuzz target per
# invocation, hence three commands). Crashers land in
# internal/loadgen/testdata/fuzz/ for `go test` to replay forever after.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReadTrace$$' -fuzztime=2000x ./internal/loadgen
	$(GO) test -run='^$$' -fuzz='^FuzzImportSWF$$' -fuzztime=2000x ./internal/loadgen
	$(GO) test -run='^$$' -fuzz='^FuzzImportSacct$$' -fuzztime=2000x ./internal/loadgen

vet:
	$(GO) vet ./...

# vet-trace is the trace-subsystem gate: vet plus the race detector over the
# span pipeline. Span emission happens under daemon locks from dispatch-side
# goroutines, so the trace package earns its own race pass beyond the
# test-race bundle.
vet-trace:
	$(GO) vet ./internal/trace/...
	$(GO) test -race ./internal/trace/...

check: vet vet-trace build test test-race
