#!/usr/bin/env bash
# Regenerates BENCH_baseline.json, the checked-in perf trajectory anchor,
# and BENCH_sg_fastpath.json, the T10 SG-construction fast-path baseline.
#
# Phase 1 runs the overhead-contract benches (T6 online certification, T7
# crash recovery, T8 metrics, T9 tracing) instrumented — NTSG_BENCH_METRICS_DIR
# set, so each binary also drops a .prom snapshot — and merges the Google
# Benchmark JSON outputs into one document keyed by bench name. Phase 2 runs
# the BM_SgBatch{Naive,Fast} rows of bench_sg_construction through
# tools/bench_snapshot.sh, with repetitions so the document carries median
# aggregates; that file is what tools/check_bench_regression.py gates the
# nightly CI job against.
#
# Usage: tools/bench_baseline.sh [output.json] [fastpath-output.json]
#   BUILD_DIR            build tree holding bench/ binaries (default: build)
#   NTSG_BENCH_MIN_TIME  --benchmark_min_time per bench (default: 0.05);
#                        raise for a lower-noise baseline on a quiet machine.
#   NTSG_BENCH_REPS      repetitions for the fast-path medians (default: 5)
#   NTSG_BENCH_SKIP_BASELINE  non-empty: skip phase 1 (CI regression runs
#                        only need the fast-path document)
#
# Numbers are machine- and build-type-specific: regenerate on the reference
# machine when reseeding the baseline, and read deltas, not absolutes.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
# shellcheck source=tools/bench_common.sh
source tools/bench_common.sh
ntsg_bench_prepare bench_incremental_certifier bench_fault_overhead \
  bench_obs_overhead bench_trace_overhead
MIN_TIME="${NTSG_BENCH_MIN_TIME:-0.05}"
OUT="${1:-BENCH_baseline.json}"
FASTPATH_OUT="${2:-BENCH_sg_fastpath.json}"
BENCHES=(bench_incremental_certifier bench_fault_overhead
         bench_obs_overhead bench_trace_overhead)

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

if [[ -n "${NTSG_BENCH_SKIP_BASELINE:-}" ]]; then
  BENCHES=()
fi

for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin — build the bench targets first" >&2
    exit 1
  fi
  echo "running $bench (min_time=$MIN_TIME)..." >&2
  NTSG_BENCH_METRICS_DIR="$workdir" "$bin" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=json \
    --benchmark_out="$workdir/$bench.json" \
    --benchmark_out_format=json >/dev/null
done

# One document: shared context from the first bench (host facts), then each
# bench's benchmark rows under its own key, with the per-run bookkeeping
# fields dropped so diffs show timing movement, not row renumbering. User
# counters (events=...) are plain row fields and survive.
if [[ ${#BENCHES[@]} -gt 0 ]]; then
  jq -n \
    --arg min_time "$MIN_TIME" \
    --slurpfile first "$workdir/${BENCHES[0]}.json" \
    '{schema: 1,
      min_time: ($min_time | tonumber),
      context: (($first[0].context | del(.date, .executable))
                + {repo_build_type: env.NTSG_REPO_BUILD_TYPE}),
      benches: {}}' > "$workdir/merged.json"
  for bench in "${BENCHES[@]}"; do
    jq --arg name "$bench" --slurpfile doc "$workdir/$bench.json" \
      '.benches[$name] = [$doc[0].benchmarks[]
                          | del(.family_index, .per_family_instance_index,
                                .run_name, .run_type, .repetitions,
                                .repetition_index, .threads)]' \
      "$workdir/merged.json" > "$workdir/merged.next.json"
    mv "$workdir/merged.next.json" "$workdir/merged.json"
  done
  mv "$workdir/merged.json" "$OUT"
  echo "wrote $OUT" >&2
fi

# Phase 2: the SG fast-path document. Repetitions give the aggregate rows
# (median and friends) the regression gate consumes; only those are kept.
tools/bench_snapshot.sh bench_sg_construction BM_SgBatch "$FASTPATH_OUT"
