#!/usr/bin/env python3
"""Perf-regression gate for the SG fast path (EXPERIMENTS.md T10).

Compares a candidate BENCH_sg_fastpath.json (produced by
tools/bench_baseline.sh on the machine under test) against the checked-in
baseline document and fails when

  * any benchmark's median latency regressed by more than --max-regression
    (default 15%) relative to the baseline median, or
  * the naive/fast median ratio on the skewed workload (BM_SgBatchNaive/110
    vs BM_SgBatchFast/110) fell below --min-speedup (default 3.0) in the
    candidate run, or
  * either document was produced from a Debug build of the repo
    (context.repo_build_type, stamped by the bench_*.sh regenerators):
    -O0 medians are meaningless as a perf anchor, so the gate refuses
    rather than comparing them. A debug-built Google Benchmark *library*
    (context.library_build_type) only warns — it biases the harness's
    timer overhead, not the measured code, and is fixed by whatever the
    system package shipped.

Both documents must carry aggregate rows (bench_baseline.sh runs the
fast-path benches with repetitions). Medians are compared after normalizing
time units. Usage:

  tools/check_bench_regression.py BASELINE CANDIDATE [options]
"""

import argparse
import json
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def load_medians(doc):
    """Returns {benchmark name -> median real_time in ns} for one document.

    Google Benchmark appends "/real_time" to the name of a row registered
    with UseRealTime(). The gate compares real_time either way, so the
    suffix is dropped: a snapshot taken before a row switched to
    UseRealTime() still matches the row's new name.
    """
    medians = {}
    for rows in doc.get("benches", {}).values():
        for row in rows:
            if row.get("aggregate_name") != "median":
                continue
            name = row["name"]
            if name.endswith("_median"):
                name = name[: -len("_median")]
            if name.endswith("/real_time"):
                name = name[: -len("/real_time")]
            medians[name] = row["real_time"] * _UNIT_NS[row["time_unit"]]
    return medians


def check_build_type(path, doc):
    """Refuses Debug-repo snapshots; warns on a debug timing library.

    Returns an error string for refusal, None when acceptable.
    """
    context = doc.get("context", {})
    repo = context.get("repo_build_type")
    if repo is not None and repo.lower() == "debug":
        return (f"{path}: snapshot was produced from a Debug repo build "
                "(context.repo_build_type) — regenerate with "
                "tools/bench_*.sh, which configure Release")
    if repo is None:
        print(f"warning: {path} carries no repo_build_type stamp (predates "
              "the bench_common.sh guard); cannot verify it was an "
              "optimized build", file=sys.stderr)
    if context.get("library_build_type") == "debug":
        print(f"warning: {path} was timed against a debug-built Google "
              "Benchmark library (context.library_build_type); harness "
              "overhead is inflated — read deltas, not absolutes",
              file=sys.stderr)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--max-regression", type=float, default=0.15,
                        help="allowed fractional median slowdown (0.15 = 15%%)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required naive/fast median ratio, skewed load")
    parser.add_argument("--speedup-naive", default="BM_SgBatchNaive/110")
    parser.add_argument("--speedup-fast", default="BM_SgBatchFast/110")
    args = parser.parse_args()

    baseline_doc = load_doc(args.baseline)
    candidate_doc = load_doc(args.candidate)
    for path, doc in ((args.baseline, baseline_doc),
                      (args.candidate, candidate_doc)):
        refusal = check_build_type(path, doc)
        if refusal is not None:
            print(f"error: {refusal}", file=sys.stderr)
            return 2

    baseline = load_medians(baseline_doc)
    candidate = load_medians(candidate_doc)
    if not baseline:
        print(f"error: no median rows in {args.baseline}", file=sys.stderr)
        return 2
    if not candidate:
        print(f"error: no median rows in {args.candidate}", file=sys.stderr)
        return 2

    failures = []
    for name, base_ns in sorted(baseline.items()):
        cand_ns = candidate.get(name)
        if cand_ns is None:
            failures.append(f"{name}: present in baseline, missing from "
                            "candidate")
            continue
        ratio = cand_ns / base_ns
        verdict = "OK"
        if ratio > 1.0 + args.max_regression:
            verdict = "REGRESSED"
            failures.append(
                f"{name}: median {cand_ns / 1e6:.3f} ms vs baseline "
                f"{base_ns / 1e6:.3f} ms ({(ratio - 1.0) * 100:+.1f}%, "
                f"allowed +{args.max_regression * 100:.0f}%)")
        print(f"{verdict:>9}  {name}: {cand_ns / 1e6:.3f} ms "
              f"(baseline {base_ns / 1e6:.3f} ms, {(ratio - 1.0) * 100:+.1f}%)")

    naive = candidate.get(args.speedup_naive)
    fast = candidate.get(args.speedup_fast)
    if naive is None or fast is None:
        failures.append(f"speedup rows missing: {args.speedup_naive} and/or "
                        f"{args.speedup_fast}")
    else:
        speedup = naive / fast
        print(f"{'OK' if speedup >= args.min_speedup else 'TOO SLOW':>9}  "
              f"skewed naive/fast speedup: {speedup:.2f}x "
              f"(required >= {args.min_speedup:.1f}x)")
        if speedup < args.min_speedup:
            failures.append(
                f"skewed-workload speedup {speedup:.2f}x is below the "
                f"required {args.min_speedup:.1f}x")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nall fast-path perf checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
