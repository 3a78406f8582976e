GO ?= go

.PHONY: build test vet fmt staticlint race lint check fuzz test-chaos test-soak e2e perfbench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate: fails when any file of the module's packages needs
# reformatting. Each package's own *.go files are listed, so perfbench (a
# separate module) and the testdata trees stay out.
fmt:
	@out="$$(gofmt -l $$($(GO) list -f '{{.Dir}}/*.go' ./...))" || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# The project's own analyzers (cmd/shalom-vet): hot-path invariants
# (//shalom:hotpath), telemetry nil-guard discipline, context propagation,
# and atomic access discipline. internal/staticlint's TestModuleClean runs
# the same proofs under go test.
staticlint:
	$(GO) run ./cmd/shalom-vet ./...

test:
	$(GO) test ./...

# The concurrency-sensitive packages run again under the race detector:
# the public API, whose shared Context starts the driver's pool from
# concurrent calls, the thread pool, the blocked GEMM driver that feeds it,
# the breaker registry it dispatches through, the serving front end that
# coalesces concurrent requests onto the batch path, and the router. The
# pool's run state is shared by its hand-out, its workers and the joining
# caller, so its tests run ten times over, and so does the test whose
# scraper reads the breaker registry while two Contexts trip and heal it.
race:
	$(GO) test -race . ./internal/parallel/... ./internal/core/... ./internal/guard/... ./internal/server/... ./internal/router/...
	$(GO) test -race -count=10 ./internal/parallel/
	$(GO) test -race -count=10 -run TestBreakerGaugesReadTheRegistry .

# Fault-injection chaos suite: every injected fault (kernel panic, corrupt
# packing buffer, slow worker, spurious NaN) must surface as a typed error
# or a correct degraded result, with the runtime still usable afterwards.
# Runs under the race detector because the faults fire inside pool workers.
test-chaos:
	$(GO) test -race ./internal/faults/... ./internal/guard/... ./internal/parallel/...

# Self-healing soak: a few seconds of public-API calls under a randomized
# fault schedule (SHALOM_SOAK_SEED reproduces a run, SHALOM_SOAK_SECONDS
# stretches it). Every nil error must be numerically correct, every non-nil
# error typed, and all breakers must converge back to healthy once the
# schedule stops.
test-soak:
	SHALOM_SOAK=1 $(GO) test -count=1 -run TestSoakRandomFaultSchedule -v ./internal/guard/

# End-to-end harness (internal/e2e): builds the real binaries, with the
# race detector on the shalom-serve under test and on shalom-router, and
# drives them on ephemeral ports. serve: a coalescing storm and a clean
# SIGTERM drain. router: SIGKILL of one of three backends mid-storm loses
# nothing, then ejection and readmission on the old port. journal: capture,
# verify, a flipped byte fails verify, every captured request replays
# bitwise. attrib: a seeded slow class drifts in /attrib, /metrics and
# shalom-top. tune: a detuned tile is promoted with a modeled gain over the
# margin and a journaled tune-promote record. trace: a Chrome trace export
# validates.
e2e:
	SHALOM_E2E=1 $(GO) test -count=1 ./internal/e2e/

# Static kernel verification: every registered micro-kernel must clear all
# six isacheck passes (including the symbolic footprint proof) on every
# modelled platform.
lint:
	$(GO) run ./cmd/shalom-bench lint

# The benchmark (perfbench/) is its own module, so the module-wide vet,
# build and test never compile it. This vets it against this checkout's
# library and runs its tests, TestSelfTest among them: all four workloads
# through the benchmark's own forward-error check.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Short bounded fuzzes of the ISA analyzer and the wire decoder (the tier-1
# suite runs only their seed corpora; this explores a little further). The
# decoder's seeds include a 6 KiB request, and minimizing each new input
# derived from it would take the decoder's whole 10 s, so its minimization
# is capped at 1 s.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzAnalyze -fuzztime=10s ./internal/isa/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRequest -fuzztime=10s -fuzzminimizetime=1s ./internal/server/

# The CI gate.
check: vet fmt staticlint build test race test-chaos test-soak e2e lint perfbench-test
