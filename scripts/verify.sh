#!/usr/bin/env bash
# verify.sh is the repo's full verification gate: build, a gofmt check of
# every Go file (benchmark/ included), vet, the project-specific lalint
# analysis suite, the test suite, the race detector over the concurrent
# packages (the simulated cluster, the executor, the builtins whose fused SUM
# states it merges across partition tasks, the columnar value layer it
# gathers into, the BLAS-like kernels, the server, and the figure harness that
# drives them), a short fuzz of the decoders that read untrusted bytes (the
# row codec, the block frames of spill runs and the storage journal, the
# storage page decoder, journal replay, and the wire frame reader; journal
# replay opens a directory per input, a few ms each, so its minimizer is
# capped at 100 runs or it would eat the 5 s), of grouping against a naive
# oracle (its minimizer capped likewise: at the default 60 s, minimizing one
# new input can hold the exec count still for the rest of the run;
# scripts/fuzz_long.sh is the long run), of the expression evaluator (each
# lane evaluated alone must match its lane of the whole window, bit for
# bit), and of the SQL parser and planner (any text that parses, builds and
# optimizes must not panic, and its plan rebuilt node by node must explain
# the same), the end-to-end server smoke, the SIGKILL restart-recovery smoke
# over a persistent data directory, and the smoke test of the repository's
# benchmark (benchmark/ is a module of its own, so "go test ./..." does not
# reach it).
#
# Every gate runs even if an earlier one fails (except that a failed build
# skips the gates that cannot run without a building tree); the run ends with
# a summary table and a non-zero exit if any gate failed.
#
# Usage: scripts/verify.sh
set -uo pipefail
cd "$(dirname "$0")/.."

declare -a GATE_NAMES=()
declare -a GATE_RESULTS=()
FAILED=0
BUILD_OK=1

# gate <name> <command...> runs one gate, records pass/FAIL, and keeps going.
gate() {
  local name="$1"
  shift
  echo "== ${name} =="
  if "$@"; then
    GATE_NAMES+=("$name")
    GATE_RESULTS+=(pass)
  else
    GATE_NAMES+=("$name")
    GATE_RESULTS+=(FAIL)
    FAILED=1
  fi
}

# skip <name> <reason> records a gate that could not run.
skip() {
  echo "== ${1} == (skipped: ${2})"
  GATE_NAMES+=("$1")
  GATE_RESULTS+=("skip (${2})")
  FAILED=1
}

gate "go build" go build ./...
[[ ${GATE_RESULTS[-1]} == pass ]] || BUILD_OK=0

# gofmt -l prints each file whose formatting differs; any output fails.
gate "gofmt" bash -c 'out=$(gofmt -l .) && [[ -z $out ]] || { echo "$out"; false; }'

if [[ $BUILD_OK == 1 ]]; then
  gate "go vet" go vet ./...
  gate "lalint" go run ./cmd/lalint ./...
  gate "go test" go test -short ./...
  gate "go test -race" go test -race ./internal/cluster/ ./internal/baselines/... ./internal/exec/ ./internal/builtins/ ./internal/value/ ./internal/linalg/ ./internal/bench/ ./internal/spill/ ./internal/fault/ ./internal/serve/ ./internal/core/
  gate "storage race" go test -race -count=1 ./internal/storage/ ./internal/blockio/
  gate "fuzz smoke" bash -c 'go test -run "^$" -fuzz "^FuzzDecodeRows$" -fuzztime 5s ./internal/value/ &&
    go test -run "^$" -fuzz "^FuzzBlockFrames$" -fuzztime 5s ./internal/blockio/ &&
    go test -run "^$" -fuzz "^FuzzDecodePage$" -fuzztime 5s ./internal/storage/ &&
    go test -run "^$" -fuzz "^FuzzReplayJournal$" -fuzztime 5s -fuzzminimizetime 100x ./internal/storage/ &&
    go test -run "^$" -fuzz "^FuzzReadFrame$" -fuzztime 5s ./internal/serve/ &&
    go test -run "^$" -fuzz "^FuzzGroupBy$" -fuzztime 5s -fuzzminimizetime 100x ./internal/exec/ &&
    go test -run "^$" -fuzz "^FuzzEvalVec$" -fuzztime 5s ./internal/plan/ &&
    go test -run "^$" -fuzz "^FuzzPlan$" -fuzztime 5s ./internal/plan/'
  gate "serve smoke" bash scripts/serve_smoke.sh
  gate "restart smoke" bash scripts/storage_smoke.sh
  gate "bench smoke" bash -c 'cd benchmark && go test -short ./...'
else
  for g in "go vet" "lalint" "go test" "go test -race" "storage race" "fuzz smoke" "serve smoke" "restart smoke" "bench smoke"; do
    skip "$g" "build failed"
  done
fi

echo
echo "== verify summary =="
for i in "${!GATE_NAMES[@]}"; do
  printf '  %-14s %s\n' "${GATE_NAMES[$i]}" "${GATE_RESULTS[$i]}"
done
if [[ $FAILED == 1 ]]; then
  echo "verify: FAILED"
  exit 1
fi
echo "verify: all gates passed"
