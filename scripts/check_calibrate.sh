#!/usr/bin/env bash
# check_calibrate.sh — auto-calibrator smoke gate (`make calibrate-smoke`).
#
# Asserts the measured memory probe behind Auto's engine choice:
#   1. `mp -calibrate` completes inside the 2 s budget (the probe must
#      stay cheap enough to run once per process),
#   2. it reports sane, non-zero stream/copy bandwidths, a full
#      latency ladder, and a non-zero tile budget,
#   3. MP_AUTOCAL=noprobe,tilebytes=N skips the measurement and pins
#      the tile budget — the CI determinism escape hatch the tests
#      rely on.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT

$GO build -o "$BIN/mp" ./cmd/mp

# 1. Measured probe, timed. date +%s%N is GNU coreutils, present on
# the CI image; the 2 s budget is ~20x the probe's expected ~100 ms.
START=$(date +%s%N)
MP_AUTOCAL= "$BIN/mp" -calibrate >"$BIN/probe.out"
ELAPSED_MS=$(( ($(date +%s%N) - START) / 1000000 ))
if [ "$ELAPSED_MS" -gt 2000 ]; then
  echo "calibrate-smoke: probe took ${ELAPSED_MS}ms (budget 2000ms)"; exit 1
fi

get() { awk -v k="$1" '$1 == k { print $2 }' "$BIN/probe.out"; }

STREAM=$(get stream_gbps)
COPY=$(get copy_gbps)
TILE=$(get tile_bytes)
if ! awk -v v="$STREAM" 'BEGIN { exit !(v > 0) }'; then
  echo "calibrate-smoke: stream_gbps not positive: '$STREAM'"; cat "$BIN/probe.out"; exit 1
fi
if ! awk -v v="$COPY" 'BEGIN { exit !(v > 0) }'; then
  echo "calibrate-smoke: copy_gbps not positive: '$COPY'"; cat "$BIN/probe.out"; exit 1
fi
if [ -z "$TILE" ] || [ "$TILE" -le 0 ]; then
  echo "calibrate-smoke: tile_bytes not positive: '$TILE'"; cat "$BIN/probe.out"; exit 1
fi
RUNGS=$(awk '$1 == "random_ns" { print NF - 1 }' "$BIN/probe.out")
if [ "${RUNGS:-0}" -lt 3 ]; then
  echo "calibrate-smoke: latency ladder too short ($RUNGS rungs)"; cat "$BIN/probe.out"; exit 1
fi
# Every auto decision must resolve to one of Auto's candidates.
if awk '$1 == "auto" && $NF !~ /^(serial|chunked|parallel)$/ { exit 1 }' "$BIN/probe.out"; then :; else
  echo "calibrate-smoke: unresolved auto decision"; cat "$BIN/probe.out"; exit 1
fi

# 2. Deterministic override path: no measurement, pinned tile budget.
MP_AUTOCAL=noprobe,tilebytes=262144 "$BIN/mp" -calibrate >"$BIN/noprobe.out"
grep -q "probe disabled" "$BIN/noprobe.out" || {
  echo "calibrate-smoke: noprobe still measured"; cat "$BIN/noprobe.out"; exit 1
}
PINNED=$(awk '$1 == "tile_bytes" { print $2 }' "$BIN/noprobe.out")
if [ "$PINNED" != 262144 ]; then
  echo "calibrate-smoke: tilebytes override not honored (got '$PINNED')"; cat "$BIN/noprobe.out"; exit 1
fi

echo "calibrate-smoke: ok (probe ${ELAPSED_MS}ms, stream ${STREAM} GB/s, copy ${COPY} GB/s, tile ${TILE} B, override pinned)"
