#!/usr/bin/env bash
# Regenerates one checked-in BENCH_*.json perf snapshot. Runs the rows of
# bench binary BENCH that match the Google Benchmark regex FILTER ("." for
# every row) with repetitions, so the document carries median aggregates,
# and writes it to OUT. The nightly CI jobs gate a fresh run against the
# checked-in file with
#
#   tools/check_bench_regression.py SNAPSHOT candidate.json \
#     --speedup-naive NAIVE --speedup-fast FAST --min-speedup R
#
# which fails when any median regressed by more than 15% or NAIVE/FAST
# fell below R. The snapshots, their producers and their gates:
#
#   BENCH_gc_soak.json     bench_gc_memory BM_CertifyStream (T11)
#     NAIVE BM_CertifyStreamNoGc/20000  FAST BM_CertifyStreamGc/20000  R 0.9
#     collection may cost at most ~10% against the no-GC stream
#   BENCH_isolation.json   bench_isolation . (T12)
#     NAIVE BM_IsoVectorPerLevel/64  FAST BM_IsoVectorShared/64  R 2.0
#     one labeled graph shared across the four levels beats per-level
#     relation rebuilds
#   BENCH_segment_io.json  bench_segment_io . (T13)
#     NAIVE BM_TextIngest/0  FAST BM_BinaryIngest/0  R 3.0
#     binary segment replay beats the line-oriented text reader
#   BENCH_load.json        bench_load_harness . (T14)
#     NAIVE BM_LoadTimelineOn/0  FAST BM_LoadTimelineOff/0  R 0.8
#     timeline streaming stays within 1.25x of a run with it off
#   BENCH_ingest.json      bench_incremental_certifier BM_IngestPerEvent (T11)
#     NAIVE BM_IngestPerEvent  FAST BM_IngestPerEventGc  R 10
#     GC-on is the fast regime of the online certifier
#   BENCH_sg_fastpath.json bench_sg_construction BM_SgBatch (T10; written by
#     tools/bench_baseline.sh) — the checker's default pair
#     BM_SgBatchNaive/110 and BM_SgBatchFast/110, R 3.0
#
# Usage: tools/bench_snapshot.sh BENCH FILTER OUT
#   e.g. tools/bench_snapshot.sh bench_isolation . BENCH_isolation.json
#   BUILD_DIR            build tree holding bench/ binaries (default: build)
#   NTSG_BENCH_MIN_TIME  --benchmark_min_time per bench (default: 0.05)
#   NTSG_BENCH_REPS      repetitions for the medians (default: 5)
#
# OUT is relative to the repo root. Numbers are machine- and
# build-type-specific: regenerate on the reference machine when reseeding a
# baseline, and read deltas, not absolutes.
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 BENCH FILTER OUT" >&2
  exit 2
fi
BENCH="$1"
FILTER="$2"
OUT="$3"

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
# shellcheck source=tools/bench_common.sh
source tools/bench_common.sh
ntsg_bench_prepare "$BENCH"
MIN_TIME="${NTSG_BENCH_MIN_TIME:-0.05}"
REPS="${NTSG_BENCH_REPS:-5}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

bin="$BUILD_DIR/bench/$BENCH"
if [[ ! -x "$bin" ]]; then
  echo "missing $bin — build the bench targets first" >&2
  exit 1
fi
echo "running $BENCH rows matching '$FILTER' (reps=$REPS," \
     "min_time=$MIN_TIME)..." >&2
"$bin" \
  --benchmark_filter="$FILTER" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_repetitions="$REPS" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json \
  --benchmark_out="$workdir/run.json" \
  --benchmark_out_format=json >/dev/null
jq --arg reps "$REPS" --arg bench "$BENCH" \
  '{schema: 1,
    repetitions: ($reps | tonumber),
    context: ((.context | del(.date, .executable))
              + {repo_build_type: env.NTSG_REPO_BUILD_TYPE}),
    benches: {($bench):
      [.benchmarks[] | del(.family_index, .per_family_instance_index,
                           .run_name, .repetitions, .repetition_index,
                           .threads)]}}' \
  "$workdir/run.json" > "$OUT"
echo "wrote $OUT" >&2
