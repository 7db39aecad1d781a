#!/usr/bin/env bash
# tools/check.sh — the repository's full correctness gate.
#
# Runs, in order:
#   release  Release build with REPRO_WERROR=ON (warning-clean is
#            enforced, not aspirational) + the full ctest suite
#   lint     tools/repro-lint over src/ bench/ examples/ tests/
#   asan     AddressSanitizer + UndefinedBehaviorSanitizer build,
#            full ctest suite (REPRO_ARENA=new pins table memory
#            inside the sanitizer's instrumented allocator)
#   tsan     ThreadSanitizer build, ctest -L "concurrency|perf"
#            (REPRO_ARENA=new likewise)
#   service  reduced-scale prediction-service smoke run
#            (REPRO_SERVICE_SMOKE=1 REPRO_SERVICE_SCALING=1: ~10k
#            streams through bench_service_load in a scratch cwd,
#            plus the 2-point reduced scaling sweep on the dispatched
#            SIMD backend) — exercises the sharded ingest path,
#            level-1 table growth, the arrival-order kernel feed and the
#            thread-scaling harness end to end and checks that
#            BENCH_service.json carries the "scaling" table
#   perf     reduced-scale bench_throughput run plus a full-scale
#            bench_service_load run in scratch cwds, then
#            bench-compare against the
#            committed results/BENCH_throughput.json and
#            results/BENCH_service.json (records/s drop beyond
#            REPRO_PERF_THRESHOLD, default 25%, or a "_p50"/"_p99"
#            latency quantile rising beyond
#            REPRO_PERF_LATENCY_THRESHOLD, default 100%, fails after
#            one retry; CI runs this enforcing, and
#            REPRO_PERF_WARN_ONLY=1 reports without failing for
#            underpowered dev machines — the bench's own bit-identity
#            cross-check still hard-fails). REPRO_PERF_SCALE
#            overrides the 0.25 trace scale; see EXPERIMENTS.md for
#            the baseline-refresh workflow.
#   figures  regenerate every figure CSV in a scratch directory and
#            byte-diff it against the committed results/ copies
#
# Usage:
#   tools/check.sh              # everything
#   tools/check.sh lint figures # just the named stages
#
# Sanitizer and release configurations use separate build trees
# (build-check-*) so they never poison an incremental dev build/.
# Set REPRO_TRACE_DIR to a writable directory to let all stages share
# one persistent trace store (EXPERIMENTS.md, "Persistent trace
# store"); figure output is byte-identical either way.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc)"
STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] && STAGES=(release lint asan tsan service perf figures)

# Scratch dirs registered here are removed on any exit, including a
# failed stage under `set -e` and SIGINT/SIGTERM. The guarded
# expansion keeps `set -u` happy on an empty array under bash < 4.4.
CLEANUP=()
trap 'rm -rf ${CLEANUP[@]+"${CLEANUP[@]}"}' EXIT INT TERM

note() { printf '\n==> %s\n' "$*"; }

want() {
    local s
    for s in "${STAGES[@]}"; do [ "$s" = "$1" ] && return 0; done
    return 1
}

configure_and_test() {  # <build-dir> <ctest-args...> -- <cmake-args...>
    local dir="$1"; shift
    local ctest_args=()
    while [ "$1" != "--" ]; do ctest_args+=("$1"); shift; done
    shift
    cmake -B "$ROOT/$dir" -S "$ROOT" "$@" >/dev/null
    cmake --build "$ROOT/$dir" -j "$JOBS"
    ctest --test-dir "$ROOT/$dir" --output-on-failure -j "$JOBS" \
          "${ctest_args[@]}"
}

if want release; then
    note "release: warning-clean build (REPRO_WERROR=ON) + full ctest"
    configure_and_test build-check-release -- \
        -DCMAKE_BUILD_TYPE=Release -DREPRO_WERROR=ON
fi

if want lint; then
    note "lint: repro-lint over the tree"
    # Always configure + build. An existence check here once let a
    # renamed rule TU leave a stale binary linting green; configure is
    # cheap against a warm build tree and a no-op build costs nothing.
    cmake -B "$ROOT/build-check-release" -S "$ROOT" \
          -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "$ROOT/build-check-release" -j "$JOBS" \
          --target repro-lint
    # Human findings go to stdout; a SARIF 2.1.0 log is always written
    # too. Set REPRO_LINT_SARIF to keep it (CI uploads it to code
    # scanning); by default it lands in a scratch dir and is removed.
    if [ -n "${REPRO_LINT_SARIF:-}" ]; then
        LINT_SARIF="$REPRO_LINT_SARIF"
    else
        LINT_DIR="$(mktemp -d "${TMPDIR:-/tmp}/vpred-lint.XXXXXX")"
        CLEANUP+=("$LINT_DIR")
        LINT_SARIF="$LINT_DIR/repro-lint.sarif"
    fi
    "$ROOT/build-check-release/tools/repro-lint" --root "$ROOT" \
        --format "sarif=$LINT_SARIF"
fi

# Sanitizer runs pin the table arena to operator new: mmap-backed
# tables sit outside ASan's redzones and TSan's shadow is happier
# without MADV_HUGEPAGE churn. table_arena.cc already defaults to
# `new` when it detects a sanitizer build; the explicit pin keeps
# these jobs deterministic even if that detection ever changes.
if want asan; then
    note "asan: ASan+UBSan build + full ctest (REPRO_ARENA=new)"
    ( export REPRO_ARENA=new
      configure_and_test build-check-asan -- \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DREPRO_ASAN=ON -DREPRO_UBSAN=ON )
fi

if want tsan; then
    note "tsan: TSan build + ctest -L 'concurrency|perf' (REPRO_ARENA=new)"
    ( export REPRO_ARENA=new
      configure_and_test build-check-tsan -L "concurrency|perf" -- \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DREPRO_TSAN=ON )
fi

if want service; then
    note "service: reduced-scale sharded-service smoke + scaling sweep"
    [ -x "$ROOT/build-check-release/bench/bench_service_load" ] || {
        echo "service stage needs the release stage first" >&2; exit 1; }
    SERVICE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/vpred-service.XXXXXX")"
    CLEANUP+=("$SERVICE_DIR")
    (
        cd "$SERVICE_DIR"
        REPRO_SERVICE_SMOKE=1 REPRO_SERVICE_SCALING=1 \
            "$ROOT/build-check-release/bench/bench_service_load"
    )
    [ -s "$SERVICE_DIR/results/BENCH_service.json" ] || {
        echo "service smoke did not emit BENCH_service.json" >&2; exit 1; }
    # The reduced sweep (2 points on the dispatched backend) proves the
    # producer/thread harness works end to end; monotonicity is only
    # asserted on the full-scale committed run (EXPERIMENTS.md), not
    # on this noise-prone smoke shape.
    grep -q '"scaling"' "$SERVICE_DIR/results/BENCH_service.json" || {
        echo "service smoke JSON has no \"scaling\" table" >&2; exit 1; }
fi

if want perf; then
    note "perf: reduced-scale throughput run + bench-compare vs baseline"
    [ -x "$ROOT/build-check-release/bench/bench_throughput" ] &&
        [ -x "$ROOT/build-check-release/tools/bench-compare" ] || {
        echo "perf stage needs the release stage first" >&2; exit 1; }
    PERF_DIR="$(mktemp -d "${TMPDIR:-/tmp}/vpred-perf.XXXXXX")"
    CLEANUP+=("$PERF_DIR")
    # The scratch cwd keeps the fresh BENCH JSON away from the
    # committed baseline; the benches themselves exit non-zero if any
    # execution path loses bit-identity, which stays a hard failure
    # even under REPRO_PERF_WARN_ONLY (a failing bench aborts the
    # stage before any compare or retry).
    #
    # The compare threshold defaults to 25% — wider than the tool's
    # 10% default because shared runners and virtualized dev machines
    # show bursty host-level CPU steal — and one retry absorbs a
    # burst that spans a whole run. A real regression fails both
    # attempts. REPRO_PERF_THRESHOLD tightens or loosens the gate.
    # Latency quantiles gate the opposite direction at a 100% default
    # (REPRO_PERF_LATENCY_THRESHOLD): tails jitter far more than
    # rates, so this arm exists to catch order-of-magnitude latency
    # inflation and zero-valued (clamped-timestamp) quantiles, not to
    # litigate a noisy p99.
    perf_gate() {  # <baseline-json> <bench-binary> <env-prefix...>
        local baseline="$1" bench="$2"; shift 2
        local fresh="$PERF_DIR/results/$(basename "$baseline")"
        local attempt
        for attempt in 1 2; do
            (cd "$PERF_DIR" && env "$@" "$bench")
            if "$ROOT/build-check-release/tools/bench-compare" \
                    "$ROOT/$baseline" "$fresh" \
                    --threshold "${REPRO_PERF_THRESHOLD:-0.25}" \
                    --latency-threshold \
                    "${REPRO_PERF_LATENCY_THRESHOLD:-1.0}" \
                    ${REPRO_PERF_WARN_ONLY:+--warn-only}; then
                return 0
            fi
            echo "perf: $(basename "$bench") compare failed" \
                 "(attempt $attempt of 2)" >&2
        done
        return 1
    }
    perf_gate results/BENCH_throughput.json \
        "$ROOT/build-check-release/bench/bench_throughput" \
        REPRO_TRACE_SCALE="${REPRO_PERF_SCALE:-0.25}"
    # The service baseline is gated the same way, against a run of
    # the same full-scale shape (1M streams, default shard and
    # producer counts): its rate depends on the shard count the host
    # resolves, and on a multi-core host a ~10k-stream smoke run is
    # dominated by fixed start-up costs and lands far below the
    # full-scale rate, so only the committed shape compares like
    # for like. Metrics only one side produces (the committed
    # "scaling" rows) are reported as one-sided and never fail.
    perf_gate results/BENCH_service.json \
        "$ROOT/build-check-release/bench/bench_service_load"
fi

if want figures; then
    note "figures: regenerate CSVs in a scratch cwd, diff vs results/"
    [ -d "$ROOT/build-check-release/bench" ] || {
        echo "figures stage needs the release stage first" >&2; exit 1; }
    SCRATCH="$(mktemp -d "${TMPDIR:-/tmp}/vpred-figures.XXXXXX")"
    CLEANUP+=("$SCRATCH")
    (
        cd "$SCRATCH"
        for b in "$ROOT"/build-check-release/bench/bench_*; do
            # The load generator runs at full scale (1M streams) and
            # emits no CSV — it has its own `service` smoke stage.
            [ "$(basename "$b")" = bench_service_load ] && continue
            echo "  running $(basename "$b")"
            "$b" > /dev/null
        done
    )
    fail=0
    for csv in "$SCRATCH"/results/*.csv; do
        rel="results/$(basename "$csv")"
        if ! cmp -s "$csv" "$ROOT/$rel"; then
            echo "FIGURE DRIFT: $rel differs from the committed copy" >&2
            diff -u "$ROOT/$rel" "$csv" | head -20 >&2 || true
            fail=1
        fi
    done
    [ "$fail" -eq 0 ] && echo "all regenerated figure CSVs are" \
                              "byte-identical to results/"
    [ "$fail" -eq 0 ]
fi

note "check.sh: all requested stages passed (${STAGES[*]})"
