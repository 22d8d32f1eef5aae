#!/usr/bin/env python3
"""Builds the ntsg benchmark binary from source and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload zipf_audit --seed 1 --seconds 45 --trace 0
  python3 perfbench/run.py --self-test

The binary is built in Release under $CARGO_TARGET_DIR (default
.bench_build). The last line of stdout is the result JSON; build output goes
to stderr. --self-test runs the binary's own tests, then checks that every
metric BENCHMARK.json names is printed, with its unit, by every workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no repository sources next to perfbench/ "
                 "(src/CMakeLists.txt is missing); cannot build")
    build_dir = os.path.join(target_dir(), "perfbench-release")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ntsg_perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (subprocess.SubprocessError, OSError) as e:
            sys.exit(f"perfbench: build step failed: {e}")
    return os.path.join(build_dir, "ntsg_perfbench")


def run_bench(binary, args):
    """Runs the binary in a fresh work directory; returns (code, stdout)."""
    work = os.path.join(target_dir(), "work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        proc = subprocess.run([binary, *args, "--workdir", work],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        return 124, out or ""
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_test(binary):
    code, out = run_bench(binary, ["--self-test"])
    sys.stdout.write(out)
    if code != 0:
        return False
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_bench(binary, ["--workload", wl["name"], "--seed",
                                            "1", "--seconds", "1", "--trace",
                                            str(trace)])
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if code == 0 and lines else {}
            problems = []
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"exit {code}, no result line")
            elif not result["correct"] or result["failed"]:
                problems.append("outputs not correct")
            metrics = result.get("metrics", {})
            for m in spec[group]:
                got = metrics.get(m["name"], {})
                printed = any(l.startswith(f"{m['name']} = ") and
                              f" {m['unit']} " in l + " " for l in lines)
                if got.get("unit") != m["unit"] or not printed:
                    problems.append(f"{m['name']} not printed in {m['unit']}")
            extra = set(metrics) - {m["name"] for m in spec[group]}
            problems += [f"{name} printed but not in BENCHMARK.json"
                         for name in sorted(extra)]
            status = "ok  " if not problems else "FAIL"
            print(f"{status} {wl['name']} --trace {trace}: "
                  f"{'; '.join(problems) or 'every metric printed with its unit'}")
            ok = ok and not problems
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    binary = build()
    if args.self_test:
        sys.exit(0 if self_test(binary) else 1)
    if not args.workload:
        p.error("--workload is required")
    code, out = run_bench(binary, ["--workload", args.workload, "--seed",
                                    args.seed, "--seconds", args.seconds,
                                    "--trace", args.trace])
    if code != 0:
        sys.stderr.write(out)
        sys.exit(f"perfbench: ntsg_perfbench exited with code {code}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
