#!/bin/sh
# daemon_smoke.sh — end-to-end rehearsal of the corrod serving lifecycle
# (DESIGN.md §15), used by `make daemon-smoke` and the CI job of the same
# name:
#
#   1. boot corrod on an ephemeral port with a fresh data directory,
#   2. verify /healthz and /readyz answer,
#   3. burst a seeded loadgen scenario through the admission queue,
#   4. verify the query path sees every acknowledged batch, most of them
#      committed as log records rather than full checkpoints,
#   5. SIGKILL: no drain, so the data directory holds a base checkpoint
#      plus its log; restart on it and verify every acknowledged batch is
#      back (200 = durable, proven with a real binary and real files),
#   6. SIGTERM: the daemon must drain and exit 0,
#   7. restart on the same data directory: the daemon must resume exactly
#      the acknowledged state (the §10 crash-restart story, end to end),
#   8. drain again, still exit 0.
#
# Everything is asserted; any deviation fails the script.
set -eu
cd "$(dirname "$0")/.."

REQUESTS=${REQUESTS:-60}
WORK=$(mktemp -d)
CORROD_PID=""
cleanup() {
	[ -n "$CORROD_PID" ] && kill "$CORROD_PID" 2>/dev/null && wait "$CORROD_PID" 2>/dev/null
	rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
	echo "daemon-smoke: FAIL: $*" >&2
	exit 1
}

echo "daemon-smoke: building corrod and loadgen..."
go build -o "$WORK/corrod" ./cmd/corrod
go build -o "$WORK/loadgen" ./cmd/loadgen

start_corrod() {
	rm -f "$WORK/addr"
	"$WORK/corrod" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
		-data "$WORK/data" -tenants smoke >"$WORK/corrod.$1.log" 2>&1 &
	CORROD_PID=$!
	i=0
	while [ ! -s "$WORK/addr" ]; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && fail "corrod never published its address (log: $(cat "$WORK/corrod.$1.log"))"
		kill -0 "$CORROD_PID" 2>/dev/null || fail "corrod died at startup: $(cat "$WORK/corrod.$1.log")"
		sleep 0.1
	done
	ADDR=$(cat "$WORK/addr")
}

stop_corrod() {
	kill -TERM "$CORROD_PID"
	wait "$CORROD_PID" || fail "corrod exited non-zero on SIGTERM (log: $(cat "$WORK/corrod.$1.log"))"
	CORROD_PID=""
	grep -q "drained cleanly" "$WORK/corrod.$1.log" || fail "corrod log missing the clean-drain line"
}

# --- boot, health, burst ---
start_corrod boot
echo "daemon-smoke: corrod up at $ADDR"
[ "$(curl -fsS "http://$ADDR/healthz")" = "ok" ] || fail "/healthz did not answer ok"
[ "$(curl -fsS "http://$ADDR/readyz")" = "ready" ] || fail "/readyz did not answer ready"

echo "daemon-smoke: bursting $REQUESTS batches through the admission queue..."
"$WORK/loadgen" -addr "$ADDR" -tenant smoke -qps 300 -query-qps 50 \
	-requests "$REQUESTS" -seed 7 -json "$WORK/load.json" >/dev/null
ACKED=$(grep -o '"acked": *[0-9]*' "$WORK/load.json" | grep -o '[0-9]*$')
DROPPED=$(grep -o '"dropped": *[0-9]*' "$WORK/load.json" | grep -o '[0-9]*$')
[ "$ACKED" = "$REQUESTS" ] || fail "loadgen acked $ACKED of $REQUESTS batches"
[ "$DROPPED" = "0" ] || fail "loadgen dropped $DROPPED batches"

# The query path must see exactly the acknowledged batches.
BATCHES=$(curl -fsS "http://$ADDR/v1/tenants/smoke/query?limit=0" | grep -o '"batches": *[0-9]*' | grep -o '[0-9]*$')
[ "$BATCHES" = "$ACKED" ] || fail "query sees $BATCHES batches, $ACKED were acked"
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.txt"
grep -q "corrod_ingested_batches_total{tenant=\"smoke\"} $ACKED" "$WORK/metrics.txt" ||
	fail "/metrics does not report the acked batch count"
COMPACTIONS=$(grep 'corrod_checkpoint_compactions_total{tenant="smoke"}' "$WORK/metrics.txt" | grep -o '[0-9]*$')
LOGBYTES=$(grep 'corrod_checkpoint_log_bytes{tenant="smoke"}' "$WORK/metrics.txt" | grep -o '[0-9]*$')
[ -n "$COMPACTIONS" ] && [ "$COMPACTIONS" -lt "$ACKED" ] ||
	fail "$ACKED acks took ${COMPACTIONS:-?} full checkpoints; the log was not used"

# --- hard kill: no drain, the on-disk state is base + log ---
echo "daemon-smoke: SIGKILL after $ACKED acks ($COMPACTIONS full checkpoints, $LOGBYTES log bytes)..."
kill -KILL "$CORROD_PID"
wait "$CORROD_PID" 2>/dev/null || true
CORROD_PID=""
start_corrod killed
grep -q "resumed: $ACKED batches" "$WORK/corrod.killed.log" ||
	fail "restart after SIGKILL did not resume $ACKED batches: $(cat "$WORK/corrod.killed.log")"
BATCHES=$(curl -fsS "http://$ADDR/v1/tenants/smoke/query?limit=0" | grep -o '"batches": *[0-9]*' | grep -o '[0-9]*$')
[ "$BATCHES" = "$ACKED" ] || fail "daemon restarted after SIGKILL serves $BATCHES batches, want $ACKED"

# --- graceful drain ---
echo "daemon-smoke: draining..."
stop_corrod killed

# --- checkpoint-restart round-trip ---
echo "daemon-smoke: restarting on the drained data directory..."
start_corrod restart
grep -q "resumed: $ACKED batches" "$WORK/corrod.restart.log" ||
	fail "restart did not resume $ACKED batches: $(cat "$WORK/corrod.restart.log")"
BATCHES=$(curl -fsS "http://$ADDR/v1/tenants/smoke/query?limit=0" | grep -o '"batches": *[0-9]*' | grep -o '[0-9]*$')
[ "$BATCHES" = "$ACKED" ] || fail "restarted daemon serves $BATCHES batches, want $ACKED"
stop_corrod restart

echo "daemon-smoke: OK ($ACKED batches acked, killed, resumed, drained, resumed, drained again)"
