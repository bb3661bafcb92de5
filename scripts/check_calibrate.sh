#!/usr/bin/env bash
# check_calibrate.sh — auto-calibrator smoke gate (`make calibrate-smoke`).
#
# Asserts the measured memory probe behind the incremental update
# burst, and Auto's shape-only engine choice:
#   1. `mp -calibrate` completes inside the 2 s budget (the probe must
#      stay cheap enough to run once per process),
#   2. it reports sane, non-zero stream/copy bandwidths, a full
#      latency ladder, and a positive update burst at n = 2^18,
#   3. MP_AUTOCAL=noprobe,updburst=N,serialmax=M skips the measurement
#      and pins both knobs — the CI determinism escape hatch the tests
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
BURST=$(awk '$1 == "update_burst" && $2 == 262144 { print $3 }' "$BIN/probe.out")
if ! awk -v v="$STREAM" 'BEGIN { exit !(v > 0) }'; then
  echo "calibrate-smoke: stream_gbps not positive: '$STREAM'"; cat "$BIN/probe.out"; exit 1
fi
if ! awk -v v="$COPY" 'BEGIN { exit !(v > 0) }'; then
  echo "calibrate-smoke: copy_gbps not positive: '$COPY'"; cat "$BIN/probe.out"; exit 1
fi
if [ -z "$BURST" ] || [ "$BURST" -le 0 ]; then
  echo "calibrate-smoke: update_burst 262144 not positive: '$BURST'"; cat "$BIN/probe.out"; exit 1
fi
RUNGS=$(awk '$1 == "random_ns" { print NF - 1 }' "$BIN/probe.out")
if [ "${RUNGS:-0}" -lt 3 ]; then
  echo "calibrate-smoke: latency ladder too short ($RUNGS rungs)"; cat "$BIN/probe.out"; exit 1
fi
# Every auto decision must resolve to one of Auto's candidates.
if awk '$1 == "auto" && $NF !~ /^(serial|chunked)$/ { exit 1 }' "$BIN/probe.out"; then :; else
  echo "calibrate-smoke: unresolved auto decision"; cat "$BIN/probe.out"; exit 1
fi

# 2. Deterministic override path: no measurement, pinned burst and
# serial crossover.
MP_AUTOCAL=noprobe,updburst=777,serialmax=4096 "$BIN/mp" -calibrate >"$BIN/noprobe.out"
grep -q "probe disabled" "$BIN/noprobe.out" || {
  echo "calibrate-smoke: noprobe still measured"; cat "$BIN/noprobe.out"; exit 1
}
grep -qx "update_burst 262144 777" "$BIN/noprobe.out" || {
  echo "calibrate-smoke: updburst override not honored"; cat "$BIN/noprobe.out"; exit 1
}
grep -qx "serial_max 4096" "$BIN/noprobe.out" || {
  echo "calibrate-smoke: serialmax override not honored"; cat "$BIN/noprobe.out"; exit 1
}

echo "calibrate-smoke: ok (probe ${ELAPSED_MS}ms, stream ${STREAM} GB/s, copy ${COPY} GB/s, update burst ${BURST} at n=2^18, overrides pinned)"
