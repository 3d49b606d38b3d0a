#!/usr/bin/env bash
# Builds (Release) and runs the benchmark suites:
#   1. micro-kernel suite  -> BENCH_kernels.json (google-benchmark JSON)
#   2. serving suite       -> BENCH_serve.json   (closed-loop clients at fixed
#      concurrency against the micro-batching engine, plus net_c16..net_c1024
#      rows that drive real TCP connections through the epoll front end;
#      throughput + p50/p95/p99. The net rows are the connection-scaling
#      check: net_c256 throughput is expected to hold at or above net_c16.)
#   3. observability suite -> BENCH_obs.json     (disabled/enabled span cost
#      and the disabled-span overhead on MatMul/128; a workload's per-stage
#      breakdown is `python3 repobench/run.py --trace 1`)
#   4. embedding store     -> BENCH_store.json   (gather ns/row through
#      GatherRows in 64-row chunks for heap vs mmap-float vs mmap-int8,
#      resident-memory reduction, end-to-end
#      serve-path overhead of store-backed engines, the residency scenario:
#      chunk-gather p50/p99 + resident bytes for a budgeted popularity-clock
#      store vs unmanaged mmap under Zipf traffic, and the store_delta
#      scenario: AddEntityLive publish latency, time_to_first_correct_serve
#      for a never-trained entity, delta-chain gather cost, and Compact)
#   5. robustness suite    -> BENCH_robust.json  (F1 cliff vs. deterministic
#      noise rate on the dev split, overshadowed-slice F1, prior-follow
#      diagnostic, and the char-fallback encoder-hardening delta)
#
# Usage: tools/run_bench.sh [build_dir] [extra benchmark args...]
#   BOOTLEG_THREADS controls pool size for the kernel benchmarks
#   (BM_TrainEpoch / BM_ParallelEval sweep thread counts themselves).
#   SERVE_BENCH_REQUESTS overrides per-client request count (default 500).
#
# The committed BENCH_*.json files are optimized-build numbers. A fresh build
# dir is configured Release; an existing one is used as-is but its cached
# build type must be Release or RelWithDebInfo — the script refuses to
# overwrite the bench JSON from a debug (or sanitizer) build rather than
# silently committing numbers an optimized build would contradict.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-"${REPO_ROOT}/build"}"
shift || true

if [[ -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" >/dev/null
else
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Release >/dev/null
fi

BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "${BUILD_DIR}/CMakeCache.txt")"
SANITIZE="$(sed -n 's/^BOOTLEG_SANITIZE:[^=]*=//p' "${BUILD_DIR}/CMakeCache.txt")"
case "${BUILD_TYPE}" in
  # An empty cached type gets the top-level CMakeLists' Release default.
  Release|RelWithDebInfo|"") ;;
  *)
    echo "refusing to run benchmarks: ${BUILD_DIR} is a '${BUILD_TYPE:-<unset>}'" \
         "build (need Release or RelWithDebInfo); not overwriting BENCH_*.json" >&2
    exit 1
    ;;
esac
if [[ -n "${SANITIZE}" && "${SANITIZE}" != "OFF" ]]; then
  echo "refusing to run benchmarks: ${BUILD_DIR} is sanitized" \
       "(BOOTLEG_SANITIZE=${SANITIZE}); not overwriting BENCH_*.json" >&2
  exit 1
fi

cmake --build "${BUILD_DIR}" --target micro_kernels serve_bench obs_bench store_bench robust_bench -j >/dev/null

OUT="${REPO_ROOT}/BENCH_kernels.json"
"${BUILD_DIR}/bench/micro_kernels" \
  --benchmark_out="${OUT}" \
  --benchmark_out_format=json \
  "$@"

echo "wrote ${OUT}"

SERVE_OUT="${REPO_ROOT}/BENCH_serve.json"
"${BUILD_DIR}/bench/serve_bench" \
  --out "${SERVE_OUT}" \
  --requests "${SERVE_BENCH_REQUESTS:-500}"

OBS_OUT="${REPO_ROOT}/BENCH_obs.json"
"${BUILD_DIR}/bench/obs_bench" --out "${OBS_OUT}"
echo "wrote ${OBS_OUT}"

STORE_OUT="${REPO_ROOT}/BENCH_store.json"
"${BUILD_DIR}/bench/store_bench" --out "${STORE_OUT}"
echo "wrote ${STORE_OUT}"

ROBUST_OUT="${REPO_ROOT}/BENCH_robust.json"
"${BUILD_DIR}/bench/robust_bench" --out "${ROBUST_OUT}"
echo "wrote ${ROBUST_OUT}"
