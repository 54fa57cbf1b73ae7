#!/usr/bin/env bash
# Sanitizer check: configure a dedicated build tree, build everything with
# warnings as errors, and run the test suite. MONTAGE_SANITIZE picks the
# sanitizer set (default address,undefined); each set gets its own build
# tree. Pass extra ctest args through, e.g.:
#   scripts/check.sh -L slow                   # only the slow label
#   scripts/check.sh -L server_smoke           # the networked-server
#                                              # envelope (also part of the
#                                              # default suite)
#   scripts/check.sh -R Ralloc                 # a single suite
#   MONTAGE_SANITIZE=thread scripts/check.sh   # every suite under TSan
#                                              # (the TSan leg below runs
#                                              # the ones that pass today)
set -euo pipefail

cd "$(dirname "$0")/.."
SAN=${MONTAGE_SANITIZE:-address,undefined}
BUILD_DIR=${BUILD_DIR:-build-${SAN//,/-}}

scripts/check_docs.sh

cmake -B "$BUILD_DIR" -S . -DMONTAGE_SANITIZE="$SAN" -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"

# Live-scrape leg (DESIGN.md §14): boot the real server with the admin plane
# on an ephemeral port, fetch /metrics over plain TCP, and validate the body
# with the same strict parser the unit tests link (metrics_lint).
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

# TSan leg: the build that ships (telemetry compiled in, as always), with
# every suite TSan passes today: the liveness/pacing paths, DCSS, the
# baselines, the epoch system, the hazard domain and the registry's record
# path. Suites that still trip the payload-header race (ROADMAP item 3)
# join when it is fixed.
TSAN_DIR=build-thread
cmake -B "$TSAN_DIR" -S . -DMONTAGE_SANITIZE=thread -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$TSAN_DIR" -j "$(nproc)"
ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)" \
  -R "ThreadFailure|CooperativeWatchdog|Dcss|Baseline|EpochSys\.|Hazard|Telemetry|ShardedCounter" \
  "$@"
