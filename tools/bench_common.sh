# Shared build-tree preparation for the snapshot regenerators
# (tools/bench_snapshot.sh, tools/bench_baseline.sh). Source this after
# cd'ing to the repo root, then call
#
#   ntsg_bench_prepare <bench-target>...
#
# It guarantees the benchmarks run from an optimized build: if the build
# tree is unconfigured or configured Debug, it reconfigures Release and
# rebuilds the requested targets. Timings from a -O0 library build are
# meaningless as baselines — BENCH_*.json snapshots produced before this
# guard existed recorded "library_build_type": "debug" and quietly anchored
# the regression gate to debug numbers.
#
# Exports NTSG_REPO_BUILD_TYPE (the repo's CMAKE_BUILD_TYPE) so the jq
# merge step can stamp it into the snapshot context as repo_build_type;
# tools/check_bench_regression.py refuses documents stamped Debug. Note
# this is distinct from Google Benchmark's own library_build_type field,
# which reports how the *benchmark harness library* was compiled (fixed by
# the system package, debug in some containers) — the checker only warns on
# that one, since it biases the timer overhead, not the measured code.

ntsg_bench_prepare() {
  BUILD_DIR="${BUILD_DIR:-build}"
  local cache="$BUILD_DIR/CMakeCache.txt"
  local build_type=""
  if [[ -f "$cache" ]]; then
    build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$cache")"
  fi
  case "$build_type" in
    Release|RelWithDebInfo|MinSizeRel) ;;
    *)
      echo "bench: build tree '$BUILD_DIR' is" \
           "'${build_type:-unconfigured}'; reconfiguring Release" >&2
      cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
      build_type=Release
      ;;
  esac
  if [[ $# -gt 0 ]]; then
    echo "bench: building $* ($build_type)..." >&2
    cmake --build "$BUILD_DIR" -j --target "$@" >/dev/null
  fi
  export NTSG_REPO_BUILD_TYPE="$build_type"
}
