#!/usr/bin/env bash
# serve_smoke.sh exercises the lasql server end-to-end from the CLI surface:
# it starts `lasql -serve` on a local port, runs several concurrent clients
# with the same read-only script plus one per-client table workload, checks
# every client exits zero with byte-identical output for the shared script, and
# verifies the server shuts down cleanly on SIGINT.
#
# Usage: scripts/serve_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/lasql" ./cmd/lasql

PORT=$(( (RANDOM % 10000) + 42000 ))
ADDR="127.0.0.1:${PORT}"

cat > "$WORK/init.sql" <<'SQL'
CREATE TABLE pts (g INTEGER, v DOUBLE);
INSERT INTO pts VALUES (0, 1.5), (1, 2.5), (0, 3.0), (2, 4.25), (1, 0.75);
SQL

cat > "$WORK/shared.sql" <<'SQL'
SELECT g, SUM(v) AS total FROM pts GROUP BY g ORDER BY g;
SELECT COUNT(*) FROM pts;
SQL

"$WORK/lasql" -serve "$ADDR" -init "$WORK/init.sql" -max-concurrent 3 \
  2> "$WORK/server.log" &
SERVER_PID=$!

# Wait for the listener.
for _ in $(seq 1 50); do
  if "$WORK/lasql" -client "$ADDR" </dev/null >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done

N=6
FAIL=0
CLIENT_PIDS=()
for i in $(seq 1 "$N"); do
  {
    cat > "$WORK/cli$i.sql" <<SQL
CREATE TABLE smoke$i (id INTEGER, val DOUBLE);
INSERT INTO smoke$i VALUES (1, $i.5), (2, $i);
SELECT id, val FROM smoke$i ORDER BY id;
DROP TABLE smoke$i;
SQL
    "$WORK/lasql" -client "$ADDR" "$WORK/cli$i.sql" > "$WORK/own$i.out" 2> "$WORK/own$i.err" &&
    "$WORK/lasql" -client "$ADDR" "$WORK/shared.sql" > "$WORK/shared$i.out" 2> "$WORK/shared$i.err"
    echo $? > "$WORK/exit$i"
  } &
  CLIENT_PIDS+=($!)
done
for pid in "${CLIENT_PIDS[@]}"; do
  wait "$pid" || true
done

for i in $(seq 1 "$N"); do
  if [[ "$(cat "$WORK/exit$i" 2>/dev/null)" != 0 ]]; then
    echo "serve_smoke: client $i failed:" >&2
    cat "$WORK/own$i.err" "$WORK/shared$i.err" >&2 || true
    FAIL=1
  fi
done

# Every client must print byte-identical output for the shared script, the
# "(N rows; stats)" lines included: each statement runs on its own view of
# the cluster, so its counters are its own however many clients run at once.
for i in $(seq 2 "$N"); do
  if ! cmp -s "$WORK/shared1.out" "$WORK/shared$i.out"; then
    echo "serve_smoke: shared-script output differs between client 1 and client $i" >&2
    diff "$WORK/shared1.out" "$WORK/shared$i.out" >&2 || true
    FAIL=1
  fi
done

# A statement error must exit nonzero without killing the server.
if echo "SELECT * FROM no_such_table;" | "$WORK/lasql" -client "$ADDR" >/dev/null 2>&1; then
  echo "serve_smoke: bad statement did not fail the client" >&2
  FAIL=1
fi
if ! echo "SELECT COUNT(*) FROM pts;" | "$WORK/lasql" -client "$ADDR" >/dev/null 2>&1; then
  echo "serve_smoke: server unusable after a statement error" >&2
  FAIL=1
fi

# Graceful shutdown on SIGINT.
kill -INT "$SERVER_PID"
for _ in $(seq 1 50); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "serve_smoke: server did not exit after SIGINT" >&2
  kill -9 "$SERVER_PID" || true
  FAIL=1
elif ! grep -q "shutting down" "$WORK/server.log"; then
  echo "serve_smoke: no graceful-shutdown message in server log:" >&2
  cat "$WORK/server.log" >&2
  FAIL=1
fi

if [[ "$FAIL" != 0 ]]; then
  echo "serve_smoke: FAILED" >&2
  exit 1
fi
echo "serve_smoke: ok ($N concurrent clients, identical shared output, clean shutdown)"
