#!/usr/bin/env bash
# Contention loop: run K concurrent copies of one gtest filter and report
# how many passed and how long each copy took. Liveness bugs that only show
# when the CPU is oversubscribed (a settle window that never closes, a
# retry that backs off forever) surface here long before they flake a
# plain `ctest -j` run.
#
# Usage:
#   scripts/stress_test.sh BINARY FILTER K
#     BINARY  a gtest binary, e.g. build/tests/tcp_tests
#     FILTER  a --gtest_filter pattern, e.g. 'TcpScale.*'
#     K       concurrent copies, 1..16
#
# Prints one line per copy (exit code and wall seconds), then
# "passed P/K, slowest S s". Exits 0 iff every copy passed. Each copy's
# output is kept in a temporary directory that is named on failure.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 BINARY FILTER K" >&2
  exit 2
fi
BINARY=$1
FILTER=$2
K=$3
if ! [[ "$K" =~ ^[0-9]+$ ]] || [ "$K" -lt 1 ] || [ "$K" -gt 16 ]; then
  echo "$0: K must be 1..16, got '$K'" >&2
  exit 2
fi
if [ ! -x "$BINARY" ]; then
  echo "$0: not an executable: $BINARY" >&2
  exit 2
fi

OUT_DIR=$(mktemp -d "${TMPDIR:-/tmp}/stress_test.XXXXXX")

run_copy() {
  local i=$1
  local start end rc=0
  start=$(date +%s%N)
  "$BINARY" --gtest_filter="$FILTER" > "$OUT_DIR/copy-$i.log" 2>&1 || rc=$?
  end=$(date +%s%N)
  echo "$rc $(( (end - start) / 1000000 ))" > "$OUT_DIR/copy-$i.result"
}

# Milliseconds as seconds with three decimals.
secs() { printf '%d.%03d' $(( $1 / 1000 )) $(( $1 % 1000 )); }

pids=()
for i in $(seq 1 "$K"); do
  run_copy "$i" &
  pids+=($!)
done
for pid in "${pids[@]}"; do
  wait "$pid" || true
done

passed=0
slowest=0
for i in $(seq 1 "$K"); do
  read -r rc ms < "$OUT_DIR/copy-$i.result"
  printf 'copy %2d  exit %d  %9s s\n' "$i" "$rc" "$(secs "$ms")"
  if [ "$rc" -eq 0 ]; then passed=$((passed + 1)); fi
  if [ "$ms" -gt "$slowest" ]; then slowest=$ms; fi
done
printf 'passed %d/%d, slowest %s s\n' "$passed" "$K" "$(secs "$slowest")"

if [ "$passed" -ne "$K" ]; then
  echo "logs kept in $OUT_DIR" >&2
  exit 1
fi
rm -rf "$OUT_DIR"
