# Developer entry points mirroring CI (.github/workflows/ci.yml): `make all`
# runs every required CI step that needs no download — vet, build and test,
# the examples, race, fuzz, the benchmark smoke, the results regeneration
# and its diff, the benchmark module, and the zero-alloc gate — so a change
# that passes it locally passes them. Staticcheck and govulncheck are the
# two CI steps it leaves out (`make lint-extra`). TestMakefileAllCoversCI
# holds every `make` target CI runs to a prerequisite of all.

GO ?= go

# Concurrency-sensitive packages run under the race detector in CI. The
# experiments package is here for its worker pool (Sweep): every figure
# sweep runs on it, GOMAXPROCS workers wide, with no serial path beside it.
# cmd/rcbrsim is here because TestEveryCommandRuns drives each command from
# the dispatcher into that pool, and churn and the live loop's presets into a
# live switch. internal/live is here for the loop's UDP signaling server,
# which serves the first hop from a goroutine of its own.
RACE_PKGS := ./internal/switchfab/ ./internal/netproto/ ./internal/metrics/ ./internal/mesh/ ./internal/churn/ ./internal/datapath/ ./internal/vctable/ ./internal/experiments/ ./internal/live/ ./cmd/rcbrd/ ./cmd/rcbrsim/

# Per-fuzz-target smoke budget. `go test -fuzz` takes one target per
# invocation, hence the explicit list.
FUZZTIME ?= 10s

.PHONY: all lint test race fuzz examples bench bench-check bench-json loc results

all: lint test examples race fuzz bench results bench-check bench-json
	git diff --exit-code results/
	$(GO) run ./cmd/benchjson -compare BENCH_trellis.json BENCH_new.json

# all writes its benchmark smoke run where CI does, beside the tracked
# baseline it is compared with, never over it.
all: BENCHJSON = BENCH_new.json

# lint is go vet. The repository's own source rules (metric names, sentinel
# matching, no lock across a blocking call) are tests in the root package and
# run with `make test`. Staticcheck and govulncheck run in CI at pinned
# versions; run them locally with `make lint-extra` if they are installed.
lint:
	$(GO) vet ./...

.PHONY: lint-extra
lint-extra: lint
	staticcheck ./...
	govulncheck ./...

test:
	$(GO) build ./...
	$(GO) test ./...

# race pins GOMAXPROCS=4 so the fabric's per-port locks and the storms'
# forwarding goroutine truly interleave with their producers under the
# detector even on smaller CI runners.
race:
	GOMAXPROCS=4 $(GO) test -race $(RACE_PKGS)

# fuzz smokes every fuzz target for FUZZTIME each: long enough to catch
# shallow regressions in the parsers and the event queue, short enough for
# every CI run.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/cell/
	$(GO) test -run '^$$' -fuzz '^FuzzRate16$$' -fuzztime $(FUZZTIME) ./internal/cell/
	$(GO) test -run '^$$' -fuzz '^FuzzParseRM$$' -fuzztime $(FUZZTIME) ./internal/cell/
	$(GO) test -run '^$$' -fuzz '^FuzzParseFrame$$' -fuzztime $(FUZZTIME) ./internal/netproto/
	$(GO) test -run '^$$' -fuzz '^FuzzServerHandle$$' -fuzztime $(FUZZTIME) ./internal/netproto/
	$(GO) test -run '^$$' -fuzz '^FuzzReadText$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzQueue$$' -fuzztime $(FUZZTIME) ./internal/sim/

# examples runs the five example programs to completion (~7 s in all): the
# README's snippets mirror them, so this is what checks those snippets
# against code that executes.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/interactive
	$(GO) run ./examples/storedvideo
	$(GO) run ./examples/admission
	$(GO) run ./examples/bookahead

bench:
	$(GO) test -run '^$$' -bench BenchmarkSignalThroughput -benchtime=1x ./internal/netproto/

# bench-check builds, vets and tests the benchmark driver. bench/ is a
# nested module (its go.mod replaces rcbr with ..) that `./...` from the
# root never reaches, so an internal/ API change that breaks it would
# otherwise surface only when the benchmark pipeline runs. CI runs this
# target; TestMakefileBenchCheck pins it.
bench-check:
	$(GO) -C bench build ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# loc prints the size figure a simplicity change quotes: the lines of every
# non-test Go file outside bench/ and any testdata/ (the first line, "total"),
# then the same count for each directory under internal/ and cmd/.
# TestMakefileLoc pins the recipe.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path './bench/*' ! -path '*/testdata/*' -exec cat {} + | wc -l | xargs printf '%6d total\n'
	@for d in internal/* cmd/*; do find $$d -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l | xargs printf "%6d $$d\n"; done

# results regenerates every file under results/ from the simulator (~2.5 min
# on 2 CPUs; fig2 is ~80 s of it). CI runs it and then `git diff
# --exit-code results/`, so the tracked outputs are the ones the tree
# prints. fig8 is the fig7 run (one simulation, both metrics in fig7.txt)
# and has no file of its own. TestMakefileResults holds one recipe line to
# each file.
results:
	$(GO) run ./cmd/rcbrsim analysis > results/analysis.txt
	$(GO) run ./cmd/rcbrsim chernoff > results/chernoff.txt
	$(GO) run ./cmd/rcbrsim fig2 > results/fig2.txt
	$(GO) run ./cmd/rcbrsim fig5 > results/fig5.txt
	$(GO) run ./cmd/rcbrsim fig5 -frames 0 > results/fig5_full.txt
	$(GO) run ./cmd/rcbrsim fig6 > results/fig6.txt
	$(GO) run ./cmd/rcbrsim fig6 -alpha 1e6 > results/fig6_12s.txt
	$(GO) run ./cmd/rcbrsim fig7 > results/fig7.txt
	$(GO) run ./cmd/rcbrsim fig9 > results/fig9.txt
	$(GO) run ./cmd/rcbrsim latency > results/latency.txt
	$(GO) run ./cmd/rcbrsim muxcmp > results/muxcmp.txt
	$(GO) run ./cmd/rcbrsim section2 > results/section2.txt

# bench-json records the tier-1 benchmark baseline (ns/op, B/op, allocs/op)
# into BENCH_trellis.json. CI runs it at -benchtime=1x into BENCH_new.json
# and holds that run to the zero-alloc contract (benchjson -compare); the
# tracked file is only ever re-recorded by hand: `make bench-json
# BENCHTIME=2s`. benchjson folds repeated lines of one benchmark (go test
# -count N, run by hand into the same pipe) into one record with the median
# and quartiles; it needs no flag for that and this target no variable.
BENCHTIME ?= 1x
BENCHJSON ?= BENCH_trellis.json

bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=$(BENCHTIME) -timeout 30m . \
		| $(GO) run ./cmd/benchjson -o $(BENCHJSON)
