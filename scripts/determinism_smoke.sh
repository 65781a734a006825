#!/bin/sh
# determinism_smoke.sh — the stream's byte-identity contract checked at the
# process boundary, used by `make determinism-smoke` and the CI job of the
# same name. cmd/corroborate streams the restaurant crawl and then the
# synthetic world, checkpointing after each batch, once for every
# GOMAXPROCS ∈ {1,2,4} × -shards ∈ {1,4,7}. Every run's stdout and its
# final checkpoint (~4 MB, every decided probability and trust
# accumulator bit for bit) must be identical to the GOMAXPROCS=1
# -shards 1 run, which decides every batch sequentially.
#
# Each run gets a fresh directory, so no run resumes another's checkpoint.
# Any difference fails the script.
set -eu
cd "$(dirname "$0")/.."

GO=${GO:-go}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() {
	echo "determinism-smoke: FAIL: $*" >&2
	exit 1
}

echo "determinism-smoke: building datagen and corroborate..."
$GO build -o "$WORK/datagen" ./cmd/datagen
$GO build -o "$WORK/corroborate" ./cmd/corroborate
"$WORK/datagen" -world restaurant -out "$WORK/crawl.csv" >/dev/null
"$WORK/datagen" -world synth -out "$WORK/synth.csv" >/dev/null

runs=0
for p in 1 2 4; do
	for s in 1 4 7; do
		run="$WORK/run-p$p-s$s"
		mkdir "$run"
		(cd "$run" && GOMAXPROCS=$p "$WORK/corroborate" -stream ../crawl.csv,../synth.csv \
			-shards "$s" -checkpoint ck.json >stdout.txt) ||
			fail "GOMAXPROCS=$p -shards $s exited non-zero"
		runs=$((runs + 1))
	done
done

ref="$WORK/run-p1-s1"
for p in 1 2 4; do
	for s in 1 4 7; do
		run="$WORK/run-p$p-s$s"
		cmp -s "$ref/stdout.txt" "$run/stdout.txt" ||
			fail "stdout under GOMAXPROCS=$p -shards $s differs from GOMAXPROCS=1 -shards 1"
		cmp -s "$ref/ck.json" "$run/ck.json" ||
			fail "checkpoint under GOMAXPROCS=$p -shards $s differs from GOMAXPROCS=1 -shards 1"
	done
done
echo "determinism-smoke: OK ($runs runs; stdout and the $(wc -c <"$ref/ck.json")-byte checkpoint identical)"
