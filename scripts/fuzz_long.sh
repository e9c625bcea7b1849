#!/usr/bin/env bash
# fuzz_long.sh is the long local fuzz run; it is not a verify.sh gate. It fuzzes
# each target for <seconds> with the minimizer capped at 100 runs per new
# input (at the default 60 s a minimization can hold the exec count still for
# most of a run), prints each target's exec count and its longest stretch
# without a new exec, and fails when a target finds a crasher or its exec count
# stands still for 10 s or more. Commit any crasher it writes under
# testdata/fuzz/ as a regression case.
#
# Usage: scripts/fuzz_long.sh <seconds> [target...]
#   scripts/fuzz_long.sh 60                          # all eight targets
#   scripts/fuzz_long.sh 60 FuzzGroupBy FuzzEvalVec  # only these
set -uo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || ! $1 =~ ^[0-9]+$ ]]; then
  echo "usage: scripts/fuzz_long.sh <seconds> [target...]" >&2
  exit 2
fi
seconds=$1
shift

declare -A PKG=(
  [FuzzDecodeRows]=./internal/value/
  [FuzzBlockFrames]=./internal/blockio/
  [FuzzDecodePage]=./internal/storage/
  [FuzzReplayJournal]=./internal/storage/
  [FuzzReadFrame]=./internal/serve/
  [FuzzGroupBy]=./internal/exec/
  [FuzzEvalVec]=./internal/plan/
  [FuzzPlan]=./internal/plan/
)
targets=("$@")
if [[ ${#targets[@]} -eq 0 ]]; then
  targets=(FuzzDecodeRows FuzzBlockFrames FuzzDecodePage FuzzReplayJournal FuzzReadFrame FuzzGroupBy FuzzEvalVec FuzzPlan)
fi

logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

# progress reads a fuzz log's "elapsed: T, execs: N (R/sec)" lines and prints
# the last exec count and the longest time, in seconds, it stood still.
progress() {
  awk '
    function secs(s, t) {
      t = 0
      if (match(s, /[0-9]+h/)) t += 3600 * substr(s, RSTART, RLENGTH - 1)
      if (match(s, /[0-9]+m/)) t += 60 * substr(s, RSTART, RLENGTH - 1)
      if (match(s, /[0-9.]+s/)) t += substr(s, RSTART, RLENGTH - 1)
      return t
    }
    /elapsed: .*execs: / {
      for (i = 1; i < NF; i++) {
        if ($i == "elapsed:") el = $(i + 1)
        if ($i == "execs:") ex = $(i + 1)
      }
      sub(/,$/, "", el)
      t = secs(el)
      if (!seen || ex != last) { seen = 1; last = ex; since = t }
      if (t - since > worst) worst = t - since
    }
    END { printf "%d %d\n", last, worst }' "$1"
}

failed=0
for target in "${targets[@]}"; do
  pkg=${PKG[$target]:-}
  if [[ -z $pkg ]]; then
    echo "$target: unknown target" >&2
    failed=1
    continue
  fi
  log="$logs/$target.log"
  go test -run '^$' -fuzz "^${target}\$" -fuzztime "${seconds}s" -fuzzminimizetime 100x -parallel 2 "$pkg" >"$log" 2>&1
  status=$?
  read -r execs stall < <(progress "$log")
  verdict=ok
  if [[ $status -ne 0 ]]; then
    verdict="FAIL (go test exit $status)"
  elif [[ $stall -ge 10 ]]; then
    verdict="FAIL (no new exec for ${stall} s)"
  fi
  printf '%-18s %10d execs in %s s, longest stall %2d s  %s\n' "$target" "$execs" "$seconds" "$stall" "$verdict"
  if [[ $verdict != ok ]]; then
    failed=1
    tail -n 20 "$log"
  fi
done
exit $failed
