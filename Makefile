GO ?= go

.PHONY: build test vet staticlint race lint check fuzz test-chaos test-soak trace-smoke serve-smoke journal-smoke attrib-smoke router-smoke tune-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The project's own analyzers (cmd/shalom-vet): hot-path invariants
# (//shalom:hotpath), telemetry nil-guard discipline, context propagation,
# and atomic access discipline. internal/staticlint's TestModuleClean runs
# the same proofs under go test.
staticlint:
	$(GO) run ./cmd/shalom-vet ./...

test:
	$(GO) test ./...

# The concurrency-sensitive packages run again under the race detector:
# the thread pool, the blocked GEMM driver that feeds it, the breaker
# registry it dispatches through, the serving front end that coalesces
# concurrent requests onto the batch path, and the router.
race:
	$(GO) test -race ./internal/parallel/... ./internal/core/... ./internal/guard/... ./internal/server/... ./internal/router/...

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

# Trace smoke test: drive a small workload mix through a telemetry-enabled
# context, export the Chrome trace_event JSON, and validate it (well-formed,
# per-lane monotonic timestamps, balanced name-matched B/E pairs).
trace-smoke:
	$(GO) run ./cmd/shalom-top -once -duration 200ms -mix small \
		-trace $${TMPDIR:-/tmp}/shalom-trace-smoke.json -validate

# Serving-layer smoke test: race-enabled shalom-serve on an ephemeral port,
# a closed-loop shalom-load storm (64 requests, 16 workers), asserting every
# request answered, the /metrics coalesce counter > 0 (at least one flush of
# batch size > 1), and a clean SIGTERM drain with zero dropped admitted
# requests.
serve-smoke:
	sh scripts/serve-smoke.sh

# Attribution smoke test: race-enabled shalom-serve with fast attribution
# windows and the slow-shape-class chaos point armed against "small", a
# mixed shalom-load storm, then assertions that the seeded regression
# surfaces as a drift event and the top-ranked tuning candidate in /attrib,
# in the Prometheus exposition, and in shalom-top's heat view, followed by
# a clean drain.
attrib-smoke:
	sh scripts/attrib-smoke.sh

# Autotuner smoke test: race-enabled shalom-serve with -autotune and a
# deliberately detuned f32/small serving tile, a storm until the closed loop
# runs search -> prove -> canary -> promote, then assertions that the
# promotion surfaces in /tune with a modeled gain clearing the engine's
# margin, the Prometheus exposition, shalom-top's tune view, and a
# verifiable journal tune-promote record, followed by a clean drain; the
# measured before/after small-mix throughput is printed, not gated.
tune-smoke:
	sh scripts/tune-smoke.sh

# Router smoke test: three shalom-serve backends behind a race-enabled
# shalom-router, a storm with a SIGKILL of one backend mid-storm (zero lost
# requests — hedged retries route around the corpse), assertions that the
# dead backend is ejected and, once restarted on its old port, readmitted
# (both visible in the router's /metrics), and a clean SIGTERM rolling drain.
router-smoke:
	sh scripts/router-smoke.sh

# Journal smoke test: the full forensic loop — capture a journaled storm,
# SIGTERM-seal it, shalom-journal verify, prove a single flipped byte fails
# verification, then replay the capture against a fresh server and require
# every completed request to reproduce its journaled result hash bitwise.
journal-smoke:
	sh scripts/journal-smoke.sh

# Static kernel verification: every registered micro-kernel must clear all
# six isacheck passes (including the symbolic footprint proof) on every
# modelled platform.
lint:
	$(GO) run ./cmd/shalom-lint -all

# A short bounded fuzz of the ISA analyzer (the tier-1 suite runs only the
# seed corpus; this explores a little further).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzAnalyze -fuzztime=10s ./internal/isa/

# The CI gate.
check: vet staticlint build test race test-chaos test-soak trace-smoke serve-smoke router-smoke journal-smoke attrib-smoke tune-smoke lint
