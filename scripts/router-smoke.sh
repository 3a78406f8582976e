#!/usr/bin/env sh
# router-smoke: end-to-end smoke test of the fault-tolerant sharded router
# tier against a live three-backend fleet.
#
# Builds shalom-serve, a race-enabled shalom-router and shalom-load, starts
# three backends plus the router, and requires:
#   - a baseline storm through the router answers every request (no sheds,
#     no errors) across the fleet,
#   - SIGKILL of one backend mid-storm loses nothing: every admitted request
#     is still answered (hedged retries route around the corpse),
#   - the killed backend is ejected (libshalom_router_ejections_total > 0
#     in the router's /metrics) and, once restarted on its old port,
#     readmitted (libshalom_router_readmissions_total > 0),
#   - a SIGTERM rolling drain of the router exits 0 with a drain report.
set -eu

GO=${GO:-go}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/shalom-router-smoke.XXXXXX")
PIDS=""
ROUTER_PID=""
cleanup() {
    [ -n "$ROUTER_PID" ] && kill -9 "$ROUTER_PID" 2>/dev/null || true
    for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done
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

echo "router-smoke: building binaries (race-enabled router)"
$GO build -o "$TMP/shalom-serve" ./cmd/shalom-serve
$GO build -race -o "$TMP/shalom-router" ./cmd/shalom-router
$GO build -o "$TMP/shalom-load" ./cmd/shalom-load

start_backend() { # $1: index, $2: listen address
    "$TMP/shalom-serve" -addr "$2" -addr-file "$TMP/addr$1" -window 2ms \
        >>"$TMP/serve$1.log" 2>&1 &
    eval "BACKEND$1_PID=$!"
    PIDS="$PIDS $!"
}

wait_file() { # $1: path, $2: what
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "router-smoke: FAIL: $2 never appeared" >&2
            exit 1
        fi
        sleep 0.1
    done
}

for b in 1 2 3; do
    start_backend "$b" 127.0.0.1:0
done
for b in 1 2 3; do
    wait_file "$TMP/addr$b" "backend $b address"
done
A1=$(cat "$TMP/addr1"); A2=$(cat "$TMP/addr2"); A3=$(cat "$TMP/addr3")
echo "router-smoke: backends up on $A1 $A2 $A3"

"$TMP/shalom-router" -backends "$A1,$A2,$A3" -addr 127.0.0.1:0 \
    -addr-file "$TMP/router-addr" -probe-interval 100ms -probe-timeout 500ms \
    -eject-threshold 3 -readmit-base 200ms -retry-budget 2 \
    >"$TMP/router.log" 2>&1 &
ROUTER_PID=$!
wait_file "$TMP/router-addr" "router address"
RADDR=$(cat "$TMP/router-addr")
echo "router-smoke: router up on $RADDR"

echo "router-smoke: baseline storm through the healthy fleet"
"$TMP/shalom-load" -addr "$RADDR" -router -n 96 -c 12 -mix tiny -fail-on-shed

echo "router-smoke: storm with SIGKILL of backend 1 mid-storm"
"$TMP/shalom-load" -addr "$RADDR" -router -n 600 -c 16 -mix tiny \
    -fail-on-shed -json "$TMP/bench-kill.json" >"$TMP/load-kill.log" 2>&1 &
LOAD_PID=$!
sleep 0.3
kill -9 "$BACKEND1_PID"
echo "router-smoke: backend 1 ($A1) killed"
STATUS=0
wait "$LOAD_PID" || STATUS=$?
cat "$TMP/load-kill.log"
if [ "$STATUS" -ne 0 ]; then
    echo "router-smoke: FAIL: requests were lost while a backend died mid-storm" >&2
    cat "$TMP/router.log" >&2
    exit 1
fi

# When another backend owns the storm's class, no request hits the corpse
# and only the prober ejects it: -eject-threshold 3 failed probes at the
# 100ms interval, which can land after the storm ends. Poll for it,
# bounded like the readmission wait below.
i=0
while :; do
    fetch "http://$RADDR/metrics" >"$TMP/metrics-after-kill.txt"
    EJECT=$(sed -n 's/^libshalom_router_ejections_total \([0-9][0-9]*\)$/\1/p' "$TMP/metrics-after-kill.txt")
    [ -n "$EJECT" ] && [ "$EJECT" -ge 1 ] && break
    i=$((i + 1))
    if [ "$i" -gt 30 ]; then
        echo "router-smoke: FAIL: no ejection recorded after the kill (ejections_total=$EJECT)" >&2
        cat "$TMP/metrics-after-kill.txt" >&2
        exit 1
    fi
    sleep 0.1
done
echo "router-smoke: backend ejected (ejections_total=$EJECT)"

echo "router-smoke: restarting backend 1 on its old port $A1"
rm -f "$TMP/addr1"
start_backend 1 "$A1"
wait_file "$TMP/addr1" "restarted backend 1 address"

i=0
while :; do
    fetch "http://$RADDR/metrics" >"$TMP/metrics-readmit.txt" 2>/dev/null || true
    READMIT=$(sed -n 's/^libshalom_router_readmissions_total \([0-9][0-9]*\)$/\1/p' "$TMP/metrics-readmit.txt")
    [ -n "$READMIT" ] && [ "$READMIT" -ge 1 ] && break
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "router-smoke: FAIL: restarted backend never readmitted" >&2
        cat "$TMP/router.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "router-smoke: backend readmitted (readmissions_total=$READMIT)"

echo "router-smoke: post-recovery storm across the full fleet"
"$TMP/shalom-load" -addr "$RADDR" -router -n 96 -c 12 -mix tiny \
    -fail-on-shed -json "$TMP/bench-recovered.json"

echo "router-smoke: SIGTERM — expecting a clean rolling drain"
kill -TERM "$ROUTER_PID"
STATUS=0
wait "$ROUTER_PID" || STATUS=$?
ROUTER_PID=""
cat "$TMP/router.log"
if [ "$STATUS" -ne 0 ]; then
    echo "router-smoke: FAIL: router exited $STATUS after SIGTERM" >&2
    exit 1
fi
if ! grep -q "drained" "$TMP/router.log"; then
    echo "router-smoke: FAIL: router log has no drain report" >&2
    exit 1
fi
echo "router-smoke: PASS"
