#!/usr/bin/env bash
# Build and run the test suite, optionally under a sanitizer or with the
# observability layer collecting.
#
# Usage:
#   scripts/check.sh [plain|thread|address|undefined|obs|pool|faults|report|bench|plan|serve|quant|chaos|live] [extra ctest args...]
#
# Examples:
#   scripts/check.sh                 # plain Release build, full suite
#   scripts/check.sh thread          # ThreadSanitizer build, full suite
#   scripts/check.sh thread -R Gemm  # tsan build, GEMM/thread-pool tests only
#   scripts/check.sh obs             # tsan build, TFMAE_OBS=1 collection on
#   scripts/check.sh faults          # UBSan build + seeded fault sweep
#   scripts/check.sh report          # run-telemetry suite + bench-gate smoke
#   scripts/check.sh bench           # bench sweeps gated against baselines
#   scripts/check.sh quant           # int8 suites under ASan+UBSan + parity smoke
#   scripts/check.sh chaos           # serve-resilience suite + kill -9 soak
#   scripts/check.sh live            # live-observability suites + scrape smoke
#
# The obs mode is the instrumentation soak from docs/OBSERVABILITY.md: the
# whole tier-1 suite runs with TFMAE_OBS=1 so every instrumentation site
# actually records, and ThreadSanitizer watching the registry's lock-free
# shard path.
#
# The pool mode is the memory-plane soak from DESIGN.md: the tier-1 suite
# runs under AddressSanitizer three times — pool on, pool on with the NaN
# scrub canary, and TFMAE_POOL=0 — so buffer recycling, read-before-write
# of recycled memory, and the unpooled escape hatch are all exercised with
# lifetime checking. The PoolDeterminismTest cases inside the suite pin the
# two-seed bitwise pooled-vs-unpooled training-loss comparison at 1/2/4
# threads.
#
# The faults mode is the resilience soak from docs/RESILIENCE.md: the whole
# tier-1 suite runs under UndefinedBehaviorSanitizer (injected failures walk
# the error paths that rarely run otherwise) with every injection point
# inert, so it must pass exactly as in a plain build — that is the first
# run. The second phase re-runs the
# fault-injection tests under a sweep of seeds (TFMAE_FAULT_SWEEP_SEED),
# which the tests use to drive randomized injected I/O failures, NaN losses,
# and interrupts; training and recovery must survive every seed.
#
# The report mode is the run-telemetry gate from docs/OBSERVABILITY.md
# ("Run ledger & flight recorder"): the plain Release build runs the ledger / flight-recorder / report / registry-cap
# suites — including the 1/2/4-thread replay-determinism contract and the
# injected-fault postmortem — then smoke-tests the benchmark gate against
# the committed baselines.
#
# The plan mode is the pre-planned-inference soak from DESIGN.md §10: the
# InferencePlan suites (bitwise eager-vs-planned scoring, arena accounting,
# injected capture faults, the scrub canary, Score() across plan lanes
# including a TFMAE_PLAN_PROFILE multi-lane run) run twice — once under
# AddressSanitizer (arena offsets and lifetimes are hand-planned, so every
# replay is an ASan workout) and once under ThreadSanitizer (lanes replay
# concurrently, each dispatching its kernels inline). The thread mode runs
# the same tests within the full suite.
#
# The serve mode is the fleet-serving soak from docs/SERVING.md: the
# serve suite (concurrent ingest, backpressure, batched-vs-sequential
# bitwise identity at 1/2/4 threads, drain completeness) runs twice —
# under AddressSanitizer (per-lane plan arenas, snapshot lifetimes) and
# under ThreadSanitizer (lock-free stream publication, lane claiming,
# concurrent Push/Flush) — then a 30-second tfmae_serve smoke replays a
# 256-stream synthetic fleet end to end with --verify.
#
# The chaos mode is the serving-resilience soak from docs/RESILIENCE.md
# ("Serving resilience"): the serve-resilience suite (snapshot/restore
# bitwise identity at 1/2/4 threads, corrupted-newest fallback, shed
# policies, the sticky degraded latch, drain under concurrent producers,
# the scoring watchdog, and the serve.* fault points) runs under
# AddressSanitizer, then
# scripts/chaos_soak.py kill -9s a live tfmae_serve mid-run three times
# (one seed per thread count), restores each from its newest valid
# snapshot, re-feeds the tail, and fails unless the union of the killed
# and resumed score logs is bitwise-identical to an uninterrupted
# reference run.
#
# The live mode is the live-observability soak from docs/OBSERVABILITY.md
# ("Live endpoints & SLOs"): the exporter / HTTP endpoint / stage-timeline /
# SLO / drift suites run under AddressSanitizer (socket buffers, reservoir
# and ring lifetimes) and ThreadSanitizer (the scrape thread reads the
# registry while scoring threads record into it), both with TFMAE_OBS=1 so
# every macro site records. Then
# scripts/live_smoke.py drives a 256-stream tfmae_serve with
# --metrics_port=0 (which turns collection on by itself), scrapes /metrics
# mid-load, checks the tfmae_serve_* families are there, validates the
# exposition
# format and the stage-sum/end-to-end reconciliation, and asserts /healthz
# flips to 503 during drain.
#
# The bench mode is the performance gate from docs/OBSERVABILITY.md
# ("Benchmark gating"): it runs the bench_micro JSON sweeps in the plain
# build and fails if any tracked relative metric (speedup ratios,
# allocation reduction, bitwise-determinism booleans) regresses past the
# tolerance in scripts/bench_gate.py.
#
# The quant mode is the int8-scoring soak from DESIGN.md §12: the quant
# suites (kernel ISA/thread-count bitwise identity, QuantSpec container
# round-trips, calibration edge cases, int8 plan activation and fallback —
# including the injected-fault fp32 demotion) run under AddressSanitizer
# and again under UndefinedBehaviorSanitizer. Then the
# ASan build runs a 3-profile F1-parity smoke (`bench_micro
# --quant_json ... --quant_profiles=3`), which fails on its own if int8 F1
# drifts past the tolerance or int8 scores diverge across thread counts.
# The full 5-profile parity sweep with the 1.8x speedup floor runs in
# bench mode, where timings are unsanitized.
#
# Every mode reuses one build per sanitizer, build-check-<sanitizer> for
# plain, address, thread and undefined, so sanitized and plain object files
# never mix and no configuration is built twice.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-plain}"
shift || true

case "$MODE" in
  plain|thread|address|undefined|obs|pool|faults|report|bench|plan|serve|quant|chaos|live) ;;
  *)
    echo "usage: $0 [plain|thread|address|undefined|obs|pool|faults|report|bench|plan|serve|quant|chaos|live] [ctest args...]" >&2
    exit 2
    ;;
esac

# build SAN — configure and build build-check-SAN (SAN = plain, address,
# thread or undefined) and set BUILD_DIR to it.
build() {
  BUILD_DIR="build-check-$1"
  local flag=""
  [ "$1" = plain ] || flag="-DTFMAE_SANITIZE=$1"
  cmake -B "$BUILD_DIR" -S . $flag >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)"
}

case "$MODE" in
  plain|thread|address|undefined)
    build "$MODE"
    ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
    ;;
  obs)
    build thread
    TFMAE_OBS=1 ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
    ;;
  pool)
    build address
    echo "== pool suite: ASan, TFMAE_POOL=1 =="
    TFMAE_POOL=1 ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
    echo "== pool suite: ASan, TFMAE_POOL=1 TFMAE_POOL_SCRUB=1 =="
    TFMAE_POOL=1 TFMAE_POOL_SCRUB=1 \
      ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
    echo "== pool suite: ASan, TFMAE_POOL=0 =="
    TFMAE_POOL=0 ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
    ;;
  faults)
    build undefined
    echo "== faults suite: UBSan, injection points inert =="
    ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
    for seed in 1 7 1234; do
      echo "== faults sweep: injected failures, seed $seed =="
      TFMAE_FAULT_SWEEP_SEED="$seed" \
        ctest --test-dir "$BUILD_DIR" --output-on-failure \
        -R 'FaultRegistry|FaultInjection|NumericGuard' "$@"
    done
    ;;
  report)
    build plain
    echo "== telemetry suite: ledger, flight recorder, report, registry caps =="
    ctest --test-dir "$BUILD_DIR" --output-on-failure \
      -R 'Ledger|FlightRecorder|Report|RegistryOverflow|KsDistance|Obs' "$@"
    echo "== bench gate smoke: committed baselines vs themselves =="
    python3 scripts/bench_gate.py --smoke
    ;;
  bench)
    build plain
    OUT_DIR="$BUILD_DIR/bench_sweeps"
    mkdir -p "$OUT_DIR"
    for sweep in tensor_backend memory_plane resilience inference_plan \
                 serving quant; do
      echo "== bench sweep: $sweep =="
      "$BUILD_DIR/bench/bench_micro" "--${sweep}_json=$OUT_DIR/$sweep.json"
    done
    echo "== bench gate: sweeps vs bench_results/baselines =="
    python3 scripts/bench_gate.py --current-dir "$OUT_DIR"
    ;;
  plan)
    for san in address thread; do
      build "$san"
      echo "== plan suite: $san sanitizer, capture/replay/fallback tests =="
      ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'InferencePlan' "$@"
    done
    ;;
  serve)
    for san in address thread; do
      build "$san"
      echo "== serve suite: $san sanitizer, fleet-server tests =="
      ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'Serve' "$@"
    done
    echo "== serve smoke: 256 streams, 30 seconds, batched == sequential =="
    build-check-address/tools/tfmae_serve \
      --streams=256 --threads=2 --seconds=30 --rows=0 --verify
    ;;
  chaos)
    build address
    echo "== serve resilience suite: ASan, snapshot/shed/watchdog/fault tests =="
    ctest --test-dir "$BUILD_DIR" --output-on-failure \
      -R 'FleetSnapshot|FleetShed|FleetDrain|FleetFault|StreamStateCodec' "$@"
    echo "== chaos soak: kill -9 mid-run, restore, union-of-logs bitwise =="
    python3 scripts/chaos_soak.py --serve-bin "$BUILD_DIR/tools/tfmae_serve"
    ;;
  live)
    for san in address thread; do
      build "$san"
      echo "== live suite: $san sanitizer, exporter/endpoint/SLO/drift tests =="
      TFMAE_OBS=1 ctest --test-dir "$BUILD_DIR" --output-on-failure \
        -R 'PromExport|HttpEndpoint|ServeObs|RegistryOverflow|HistogramQuantile' "$@"
    done
    echo "== live smoke: 256 streams, mid-load scrape, drained /healthz == 503 =="
    python3 scripts/live_smoke.py \
      --serve-bin build-check-address/tools/tfmae_serve
    ;;
  quant)
    for san in address undefined; do
      build "$san"
      echo "== quant suite: $san sanitizer, kernel/spec/calibration/plan tests =="
      ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'Quant' "$@"
    done
    echo "== quant parity smoke: 3 dataset profiles, int8 vs fp32 F1 =="
    build-check-address/bench/bench_micro \
      --quant_json=build-check-address/quant_smoke.json --quant_profiles=3
    ;;
esac
