#!/usr/bin/env sh
# tune-smoke: end-to-end smoke test of the traffic-adaptive kernel autotuner.
#
# Builds shalom-serve (race-enabled), shalom-load, shalom-top, and
# shalom-journal, starts the server with -autotune and a deliberately
# detuned f32/small serving tile, storms it until the attribution feed
# flags the class, and requires the closed loop to run to promotion:
#   - /tune: the small class reaches state "promoted" with a tuned-* kernel
#     whose modeled throughput clears the engine's own margin over the
#     incumbent it displaced,
#   - /metrics: the promoted event counter and the per-class state gauge,
#   - shalom-top -tune: the autotuner view shows the promoted class,
#   - shalom-load: small-mix throughput before and after promotion is
#     measured and printed (not gated: on a race-built server on a shared
#     host the measured A/B is dominated by host noise),
#   - the journal carries a verifiable tune-promote record,
#   - the server log carries the detune seed, the promotion, and a clean
#     drain with the autotune summary line.
set -eu

GO=${GO:-go}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/shalom-tune-smoke.XXXXXX")
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

echo "tune-smoke: building race-enabled binaries"
$GO build -race -o "$TMP/shalom-serve" ./cmd/shalom-serve
$GO build -o "$TMP/shalom-load" ./cmd/shalom-load
$GO build -o "$TMP/shalom-top" ./cmd/shalom-top
$GO build -o "$TMP/shalom-journal" ./cmd/shalom-journal

# Short attribution windows and a fast tuning period so the loop converges
# in seconds; the detuned 1x4 tile collapses the small class's measured
# GFLOPS while the other classes anchor the calibration, so the feed ranks
# f32/small as the top tuning candidate.
"$TMP/shalom-serve" -addr 127.0.0.1:0 -addr-file "$TMP/addr" -window 5ms \
    -attrib-window 150ms -attrib-windows 2 -attrib-min-calls 4 \
    -autotune -autotune-interval 250ms -autotune-min-score 0.001 \
    -detune-class small -journal "$TMP/journal" \
    >"$TMP/serve.log" 2>&1 &
SERVE_PID=$!

i=0
while [ ! -s "$TMP/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "tune-smoke: FAIL: server never bound an address" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    fi
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "tune-smoke: FAIL: server exited before binding" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$TMP/addr")
echo "tune-smoke: server up on $ADDR (f32/small seeded with detuned 1x4 tile)"
if ! grep -q "DETUNE seeded f32/small" "$TMP/serve.log"; then
    echo "tune-smoke: FAIL: server log has no detune seed line" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi

# Baseline: measured throughput of the small mix while the detuned tile
# serves the class (printed next to the post-promotion run at the end).
"$TMP/shalom-load" -addr "$ADDR" -n 300 -c 8 -mix small \
    -json "$TMP/before.json" >>"$TMP/load.log" 2>&1
BEFORE=$(grep -o '"gflops": [0-9.]*' "$TMP/before.json" | head -1 | grep -o '[0-9.]*$')
echo "tune-smoke: detuned baseline ${BEFORE} GFLOPS on the small mix"

# Storm until the closed loop runs search -> prove -> canary -> promote,
# bounded so a stuck loop fails rather than hangs. The mixed traffic keeps
# the calibration anchored while the small-class calls both feed the
# attribution score and settle the canary.
PROMOTED=0
round=0
while [ "$round" -lt 15 ]; do
    round=$((round + 1))
    "$TMP/shalom-load" -addr "$ADDR" -n 400 -c 16 -mix mixed >>"$TMP/load.log" 2>&1
    sleep 0.5 # let attribution windows close and the tuning loop tick
    fetch "http://$ADDR/tune" >"$TMP/tune.json"
    if grep -q '"state": "promoted"' "$TMP/tune.json"; then
        PROMOTED=1
        break
    fi
done
if [ "$PROMOTED" -ne 1 ]; then
    echo "tune-smoke: FAIL: no promotion after $round storms" >&2
    cat "$TMP/tune.json" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi
echo "tune-smoke: promotion after $round storm(s)"

# /tune names the tuned candidate and the incumbent it displaced.
for want in '"shape_class": "small"' '"kernel": "tuned-' '"incumbent_kernel": "detuned-1x4"'; do
    if ! grep -q "$want" "$TMP/tune.json"; then
        echo "tune-smoke: FAIL: /tune missing $want" >&2
        cat "$TMP/tune.json" >&2
        exit 1
    fi
done
echo "tune-smoke: /tune shows the promoted tuned kernel over the detuned incumbent"

# The promotion's gain is the modeled one the engine promoted on: the
# promoted class's candidate must model at least (1 + margin) x the
# incumbent's GFLOPS, with the margin the report itself carries. Each class
# object ends with its "updated_at" field.
set -- $(awk '
    /"margin":/ { gsub(/,/, "", $2); margin = $2 }
    /"state":/ { state = $2 }
    /"incumbent_gflops":/ { gsub(/,/, "", $2); inc = $2 }
    /"candidate_gflops":/ { gsub(/,/, "", $2); cand = $2 }
    /"updated_at":/ {
        if (state ~ /"promoted"/) { print margin, inc, cand; exit }
        state = ""; inc = ""; cand = ""
    }' "$TMP/tune.json")
if [ "$#" -ne 3 ] || ! awk "BEGIN{exit !($2 > 0 && $3 >= (1 + $1) * $2)}"; then
    echo "tune-smoke: FAIL: promoted candidate does not clear the modeled margin (margin, incumbent, candidate GFLOPS: $*)" >&2
    cat "$TMP/tune.json" >&2
    exit 1
fi
echo "tune-smoke: modeled gain $2 -> $3 GFLOPS clears the (1 + $1) x incumbent floor"

fetch "http://$ADDR/metrics" >"$TMP/metrics.txt"
for want in \
    'libshalom_autotune_events_total{event="promoted"}' \
    'libshalom_autotune_events_total{event="proved"}' \
    'libshalom_autotune_events_total{event="canary"}' \
    'libshalom_autotune_class_state{precision="f32",shape_class="small",state="promoted"}' \
    'libshalom_autotune_overrides' \
    'libshalom_autotune_class_candidate_gflops{'; do
    if ! grep -Fq "$want" "$TMP/metrics.txt"; then
        echo "tune-smoke: FAIL: /metrics missing $want" >&2
        exit 1
    fi
done
echo "tune-smoke: /metrics carries the autotune counters and class-state gauges"

"$TMP/shalom-top" -tune "http://$ADDR" >"$TMP/top.txt"
if ! grep -q "promoted" "$TMP/top.txt" || ! grep -q "tuned-" "$TMP/top.txt"; then
    echo "tune-smoke: FAIL: shalom-top tune view does not show the promoted class" >&2
    cat "$TMP/top.txt" >&2
    exit 1
fi
echo "tune-smoke: shalom-top tune view shows the promoted class"

# The measured small-mix throughput after promotion, printed next to the
# detuned baseline for the record.
"$TMP/shalom-load" -addr "$ADDR" -n 300 -c 8 -mix small \
    -json "$TMP/after.json" >>"$TMP/load.log" 2>&1
AFTER=$(grep -o '"gflops": [0-9.]*' "$TMP/after.json" | head -1 | grep -o '[0-9.]*$')
echo "tune-smoke: measured small-mix throughput ${BEFORE} -> ${AFTER} GFLOPS (race-built server, not gated)"

echo "tune-smoke: SIGTERM — expecting a clean drain"
kill -TERM "$SERVE_PID"
STATUS=0
wait "$SERVE_PID" || STATUS=$?
SERVE_PID=""
if [ "$STATUS" -ne 0 ]; then
    echo "tune-smoke: FAIL: server exited $STATUS after SIGTERM" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi
if ! grep -q "shalom-serve: autotune —" "$TMP/serve.log"; then
    echo "tune-smoke: FAIL: server log has no autotune summary" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi
if grep "shalom-serve: autotune —" "$TMP/serve.log" | grep -q "promoted 0"; then
    echo "tune-smoke: FAIL: autotune summary reports no promotion" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi

# The journal verifies end to end and carries the promotion record.
if ! "$TMP/shalom-journal" verify "$TMP/journal" >>"$TMP/journal.log" 2>&1; then
    echo "tune-smoke: FAIL: journal does not verify" >&2
    cat "$TMP/journal.log" >&2
    exit 1
fi
"$TMP/shalom-journal" dump "$TMP/journal" >"$TMP/dump.txt"
if ! grep -q "tune-promote" "$TMP/dump.txt"; then
    echo "tune-smoke: FAIL: journal has no tune-promote record" >&2
    grep -v admit "$TMP/dump.txt" | tail -20 >&2
    exit 1
fi
echo "tune-smoke: journal verifies and carries the tune-promote record"
echo "tune-smoke: PASS"
