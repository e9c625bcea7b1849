#!/usr/bin/env bash
# trace_diff.sh checks that the working tree moves and computes exactly what
# <rev> does. It checks out <rev> into a temporary git worktree, runs
# `benchmark/run.sh --trace 1 --seed 1` there and in the working tree for each
# workload that runs in process (serve_mix is left out), and compares the
# exact per-op counters of the two runs: shuffle and broadcast rounds, tuples
# and bytes shuffled, tuples produced and flops. It prints one line per
# workload and counter, and exits non-zero if any of them differ. The
# worktree is removed on exit. A refactor of the executor or the cluster that
# must not change what moves passes it against its parent.
#
# Usage: scripts/trace_diff.sh <rev>
# TRACE_DIFF_SECONDS sets how long each run measures (default 2); the
# counters are per op, so the length does not change them.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:?usage: scripts/trace_diff.sh <rev>}"
seconds="${TRACE_DIFF_SECONDS:-2}"
workloads=(regress_vector gram_block distance_vector gram_tuple ooc_paged)
counters=(
  cluster.shuffle_rounds_per_op
  cluster.broadcast_rounds_per_op
  cluster.tuples_shuffled_per_op
  cluster.bytes_shuffled_per_op
  exec.tuples_produced_per_op
  linalg.flops_per_op
)

work="$(mktemp -d)"
base="$work/base"
git worktree add --detach --quiet "$base" "$rev"
trap 'git worktree remove --force "$base"; rm -rf "$work"' EXIT

# result <tree> <workload> prints the result line of one traced run.
result() {
  (cd "$1" && bash benchmark/run.sh --workload "$2" --seed 1 --seconds "$seconds" --trace 1) | tail -n 1
}

# counter <result line> <metric> prints the metric's value.
counter() {
  grep -o "\"$2\":{\"value\":[^,}]*" <<<"$1" | sed 's/.*://'
}

fail=0
for w in "${workloads[@]}"; do
  old="$(result "$base" "$w")"
  new="$(result . "$w")"
  for c in "${counters[@]}"; do
    a="$(counter "$old" "$c")"
    b="$(counter "$new" "$c")"
    mark=same
    if [[ -z "$a" || "$a" != "$b" ]]; then
      mark=DIFFERS
      fail=1
    fi
    printf '%-16s %-32s %16s %16s  %s\n' "$w" "$c" "${a:-missing}" "${b:-missing}" "$mark"
  done
done

if [[ $fail != 0 ]]; then
  echo "trace_diff: counters differ from $rev" >&2
  exit 1
fi
echo "trace_diff: every counter equals $rev's"
