#!/usr/bin/env bash
# Sanitizer check: configure a dedicated build tree, build everything, and
# run the test suite. MONTAGE_SANITIZE picks the sanitizer set (default
# address,undefined); each set gets its own build tree. Pass extra ctest
# args through, e.g.:
#   scripts/check.sh -L slow                   # only the slow label
#   scripts/check.sh -L server_smoke           # the networked-server
#                                              # envelope (also part of the
#                                              # default and TSan suites)
#   scripts/check.sh -R Ralloc                 # a single suite
#   MONTAGE_SANITIZE=thread scripts/check.sh   # TSan (races in the
#                                              # advancer/watchdog/adoption
#                                              # paths)
set -euo pipefail

cd "$(dirname "$0")/.."
SAN=${MONTAGE_SANITIZE:-address,undefined}
BUILD_DIR=${BUILD_DIR:-build-${SAN//,/-}}

scripts/check_docs.sh

cmake -B "$BUILD_DIR" -S . -DMONTAGE_SANITIZE="$SAN"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"

# Live-scrape leg (DESIGN.md §14): boot the real server with the admin plane
# on an ephemeral port, fetch /metrics over plain TCP, and validate the body
# with the same strict parser the unit tests link (metrics_lint). Run against
# the telemetry-OFF tree too: with the registry compiled out the endpoint
# must still serve a minimal, parser-valid payload.
scrape_metrics() {
  local tree=$1 label=$2
  local tmp pid admin_port
  tmp=$(mktemp -d)
  MONTAGE_SERVER_PORT=0 MONTAGE_SERVER_ADMIN_PORT=0 \
  MONTAGE_SERVER_REGION_MB=64 \
    "$tree/src/montage_kv_server" --port-file="$tmp/port" &
  pid=$!
  for _ in $(seq 1 200); do
    [[ -s "$tmp/port" ]] && break
    sleep 0.05
  done
  admin_port=$(sed -n 2p "$tmp/port")
  [[ -n "$admin_port" ]] || { echo "check: $label: no admin port" >&2; exit 1; }
  exec 3<>"/dev/tcp/127.0.0.1/$admin_port"
  printf 'GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' >&3
  sed -e '1,/^\r$/d' <&3 > "$tmp/metrics"   # drop status line + headers
  exec 3<&- 3>&-
  "$tree/src/metrics_lint" < "$tmp/metrics"
  grep -q '^montage_up 1$' "$tmp/metrics"
  kill -TERM "$pid"
  wait "$pid"
  rm -rf "$tmp"
  echo "check: $label /metrics scrape OK"
}
scrape_metrics "$BUILD_DIR" "sanitized"

# Kill-switch leg: telemetry compiled out must still build everything and
# pass its own tests (the instrumented call sites become empty inlines).
# The server suites run here too: `stats` and the shed/stall accounting are
# built on ShardedCounter, which must keep working with telemetry off.
OFF_DIR=build-telemetry-off
cmake -B "$OFF_DIR" -S . -DMONTAGE_TELEMETRY=OFF
cmake --build "$OFF_DIR" -j "$(nproc)"
ctest --test-dir "$OFF_DIR" --output-on-failure -j "$(nproc)" \
  -R "Telemetry|ShardedCounter|Region|EpochSys\.|PerfCounters|ServerConfig|Protocol|ServerSmoke|EpochParam|Promexpo|RateWindow|Log" \
  "$@"
scrape_metrics "$OFF_DIR" "telemetry-off"

# Cooperative-advance leg: the advancer-free tick path is the raciest code
# in the tree (any thread may CAS the clock while helping peers' write-
# backs), and the telemetry kill-switch changes which code is compiled in.
# Build it under TSan WITH telemetry off and run the liveness/pacing
# suites, so a race hiding behind counter call sites can't slip through.
COOP_DIR=build-thread-telemetry-off
cmake -B "$COOP_DIR" -S . -DMONTAGE_SANITIZE=thread -DMONTAGE_TELEMETRY=OFF
cmake --build "$COOP_DIR" -j "$(nproc)"
ctest --test-dir "$COOP_DIR" --output-on-failure -j "$(nproc)" \
  -R "ThreadFailure|CooperativeWatchdog" "$@"

# Smoke-perf leg (opt in with MONTAGE_SMOKE_PERF=1): a tiny un-sanitized
# orchestrator run gated against the committed baseline. The threshold is
# deliberately generous and only throughput series are gated
# (--rates-only): at 20 ms per point this proves the pipeline and catches
# order-of-magnitude cliffs, not 10% drifts — and tail percentiles from a
# handful of samples are pure noise at this scale. lines_per_op series
# (fig8/fig9) stay gated even under --rates-only: flushes per op are
# deterministic counts, so a regression there is a real change in
# write-back cost.
if [[ "${MONTAGE_SMOKE_PERF:-0}" == "1" ]]; then
  PERF_DIR=build-smoke-perf
  cmake -B "$PERF_DIR" -S .
  cmake --build "$PERF_DIR" -j "$(nproc)" --target orchestrator compare \
    fig4_design_hashmap fig8_payload fig9_sync fig15_server montage_kv_server
  MONTAGE_BENCH_SECONDS=${MONTAGE_BENCH_SECONDS:-0.02} \
  MONTAGE_BENCH_THREADS=${MONTAGE_BENCH_THREADS:-2} \
  MONTAGE_BENCH_SCALE=${MONTAGE_BENCH_SCALE:-0.002} \
    "$PERF_DIR/bench/orchestrator" --figures=4,8,9,15 \
    --out="$PERF_DIR/BENCH_smoke.json"
  "$PERF_DIR/bench/compare" results/BENCH_baseline.json \
    "$PERF_DIR/BENCH_smoke.json" --threshold=0.90 --rates-only
fi
