#!/usr/bin/env bash
# Checks that two ntsg binaries answer the same over the test corpus. Runs
# each command below on every tests/corpus/*.trace (trace first, then the
# options) with both binaries and compares stdout, stderr and the exit code:
#
#   certify                      certify --online
#   certify --online --gc=64     certify --online --gc=8
#   explain
#   isolate                      isolate --online
#
# Prints nothing and exits 0 when every output is identical. On any
# difference it prints the command and a unified diff of each stream that
# differs, and exits 1 after the whole corpus has run.
#
# Usage: tools/cli_parity.sh OLD_NTSG NEW_NTSG
#   e.g. tools/cli_parity.sh ../base/build/tools/ntsg build/tools/ntsg
#
# Run from anywhere; the corpus is found relative to this script.
set -u

if [[ $# -ne 2 ]]; then
  echo "usage: $0 OLD_NTSG NEW_NTSG" >&2
  exit 2
fi
old=$1
new=$2
for bin in "$old" "$new"; do
  if [[ ! -x $bin ]]; then
    echo "$0: not an executable: $bin" >&2
    exit 2
  fi
done

corpus="$(cd "$(dirname "$0")/../tests/corpus" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

commands=(
  "certify"
  "certify --online"
  "certify --online --gc=64"
  "certify --online --gc=8"
  "explain"
  "isolate"
  "isolate --online"
)

status=0
for trace in "$corpus"/*.trace; do
  for cmd in "${commands[@]}"; do
    read -r -a words <<< "$cmd"
    sub=${words[0]}
    opts=("${words[@]:1}")
    for side in old new; do
      bin=${!side}
      "$bin" "$sub" "$trace" "${opts[@]}" \
        > "$work/$side.out" 2> "$work/$side.err"
      echo "$?" > "$work/$side.code"
    done
    same=1
    for stream in out err code; do
      cmp -s "$work/old.$stream" "$work/new.$stream" || same=0
    done
    if [[ $same -eq 0 ]]; then
      status=1
      echo "== ntsg $sub $(basename "$trace") ${opts[*]}"
      for stream in out err code; do
        diff -u --label "old.$stream" --label "new.$stream" \
          "$work/old.$stream" "$work/new.$stream"
      done
    fi
  done
done
exit "$status"
