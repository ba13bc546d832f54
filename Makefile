GO ?= go

# VERSION stamps every binary under cmd/ (and the JSON documents
# benchjson emits) via -ldflags; override on the command line to cut a
# tagged build: `make build VERSION=v0.5.0`.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
GO_LDFLAGS := -ldflags '-X vcsched/internal/version.Version=$(VERSION)'

.PHONY: check build vet test race bench bench-short bench-gate bench-figures profile fuzz-smoke faults service-smoke fleet-smoke slo-short

# check is the tier-1 gate (see ROADMAP.md): vet (the benchmark module
# and gofmt included), build, the full test suite under the race
# detector (the fault-injection, chaos, watchdog, breaker and client
# suites among it, each run once), the env-armed fault CLI run, the
# scheduling-service and sharded-fleet smoke runs, and the SLO scenario
# suite (chaos scenarios included) checked against its golden document.
# Everything must be green before a change lands.
check: vet build race faults service-smoke fleet-smoke slo-short

build:
	$(GO) build $(GO_LDFLAGS) ./...

# vet also vets the benchmark module (perfbench is a separate module,
# so ./... skips it, and a deleted API it still reads would otherwise
# break only the benchmark run), and fails on any file gofmt would
# change, in every package of the root module. Files are listed per
# package directory because gofmt recurses into a directory argument,
# and the root directory holds everything.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@unformatted="$$(for d in $$($(GO) list -f '{{.Dir}}' ./...); do gofmt -l "$$d"/*.go; done)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt needed (run gofmt -w):"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the deduction-engine microbenchmarks (Shave, single
# probe, end-to-end block schedule) 5 times, records the averaged
# numbers in results/bench/BENCH_deduce.json (not tracked;
# EXPERIMENTS.md tracks before/after), and gates the result against
# the checked-in BENCH_baseline.json: allocs/op is deterministic so its
# band is tight (+10%); ns/op gets a wide band that still catches
# order-of-magnitude cliffs on noisy shared runners. bench-short is the
# single-run CI form; same gate. It then runs one pass of
# BenchmarkCompileSet (internal/resilient), outside BENCH_deduce.json,
# which fails unless the compile set's tiers, delivered steps and
# schedule digest equal the counts pinned in its source; its time is not
# gated. After an intentional improvement, refresh the baseline with
# `cp results/bench/BENCH_deduce.json BENCH_baseline.json` and commit it.
bench:
	mkdir -p results/bench
	$(GO) test -bench='BenchmarkShave|BenchmarkProbeCommit|BenchmarkScheduleBlock' \
		-benchmem -count=5 -run '^$$' ./internal/deduce | $(GO) run $(GO_LDFLAGS) ./cmd/benchjson > results/bench/BENCH_deduce.json
	cat results/bench/BENCH_deduce.json
	$(MAKE) bench-gate

bench-short:
	mkdir -p results/bench
	$(GO) test -bench='BenchmarkShave|BenchmarkProbeCommit|BenchmarkScheduleBlock' \
		-benchmem -count=1 -run '^$$' ./internal/deduce | $(GO) run $(GO_LDFLAGS) ./cmd/benchjson > results/bench/BENCH_deduce.json
	cat results/bench/BENCH_deduce.json
	$(MAKE) bench-gate
	$(GO) test -run '^$$' -bench CompileSet -benchtime 1x ./internal/resilient

bench-gate:
	$(GO) run $(GO_LDFLAGS) ./cmd/benchgate -baseline BENCH_baseline.json -current results/bench/BENCH_deduce.json

# profile runs 20 passes of BenchmarkCompileSet (internal/resilient)
# under the CPU profiler, keeps the profile and the test binary in
# results/bench/ (not tracked), and prints pprof's header and its
# cumulative -top lines of the deduction engine, the search, the
# matching, the virtual cluster graph (the clique bound) and CARS (the
# incumbent): the CPU shares ROADMAP.md and EXPERIMENTS.md quote come
# from this command. No CI job runs it.
profile:
	mkdir -p results/bench
	$(GO) test -run '^$$' -bench CompileSet -benchtime 20x -cpuprofile results/bench/cpu.prof \
		-o results/bench/resilient.test ./internal/resilient
	$(GO) tool pprof -top -cum results/bench/resilient.test results/bench/cpu.prof 2>/dev/null | \
		awk 'NR <= 6 || /internal\/(deduce|core|matching|vcg|cars)\./'

# bench-figures runs the paper-figure reproduction benchmarks at the
# repository root (the pre-existing `bench` target).
bench-figures:
	$(GO) test -bench=. -benchmem -run '^$$' .

# faults drives the CLI end to end with faults armed through the
# VCSCHED_FAULTS environment gate. The fault-injection and degradation-
# ladder tests themselves run once, inside `race`.
faults:
	VCSCHED_FAULTS='core.stage=panic:0:5,deduce.shave=contra:0:4' \
		$(GO) run ./cmd/vcsched -example -resilient -report -print=false

# slo-short replays the checked-in declarative scenario suite
# (scenarios/) through the in-process load harness (internal/loadsim)
# with hollow workers on a virtual clock, writes the measured
# service-level objectives to results/slo/BENCH_service.json (not
# tracked), and checks them against the golden BENCH_service.json. The
# suite repeats exactly, so every field but `version` must be equal;
# escaped hard failures, watchdog leaks and identity violations must be
# zero. After an intentional SLO change, re-record the golden file with
# `go run ./cmd/vcslo -suite scenarios -runs 1 -out BENCH_service.json`
# and say in the commit why it moved.
slo-short:
	mkdir -p results/slo
	$(GO) run $(GO_LDFLAGS) ./cmd/vcslo -suite scenarios -runs 1 -out results/slo/BENCH_service.json
	$(GO) run $(GO_LDFLAGS) ./cmd/benchgate -service -baseline BENCH_service.json -current results/slo/BENCH_service.json

# service-smoke drives the scheduling service end to end: build
# vcschedd and vcload under the race detector, start the daemon on an
# ephemeral port, replay a traffic scenario (the checked-in reproducer
# corpus plus generated blocks) through vcload, and require zero hard
# failures and a clean SIGTERM drain.
service-smoke:
	VERSION=$(VERSION) GO=$(GO) ./scripts/service_smoke.sh

# fleet-smoke drives the sharded fleet end to end: three vcschedd
# shards behind vcrouter (all built with -race), duplicate-heavy vcload
# traffic through the router, an aggregate dedup-rate floor that only
# holds when fingerprints stick to their home shard, and a clean
# SIGTERM drain of the router and every shard.
fleet-smoke:
	VERSION=$(VERSION) GO=$(GO) ./scripts/fleet_smoke.sh

# fuzz-smoke is the short-budget fuzzing gate: a small differential
# campaign (internal/difftest via cmd/vcfuzz) plus 10 seconds of each
# native fuzz target. Any violation fails the target; shrunken
# reproducers land under results/repros/.
fuzz-smoke:
	$(GO) run ./cmd/vcfuzz -budget 60 -seed 1 -out results/repros
	$(GO) test ./internal/ir -run '^$$' -fuzz FuzzParseSuperblock -fuzztime 10s
	$(GO) test ./internal/ir -run '^$$' -fuzz FuzzReadAll -fuzztime 10s
	$(GO) test ./internal/sched -run '^$$' -fuzz FuzzValidate -fuzztime 10s
	$(GO) test ./internal/httpapi -run '^$$' -fuzz FuzzBuildRequests -fuzztime 10s
