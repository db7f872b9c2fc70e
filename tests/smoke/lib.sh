# Shared helpers for the CLI smoke tests (tests/smoke/*.sh), sourced first
# thing by each of them. ctest runs every smoke as
#
#   bash <smoke>.sh BIN_DIR SOURCE_DIR WORK_DIR
#
# BIN_DIR holds the example binaries, SOURCE_DIR is the repository root
# (for examples/*.plan) and WORK_DIR is the smoke's own scratch directory,
# emptied first. Servers listen on ephemeral ports published through port
# files, so smokes can run in parallel.

set -euo pipefail

BIN=$(cd "$1" && pwd)
SRC=$(cd "$2" && pwd)
WORK=$3
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"

SERVE_PID=
on_exit() {
  local rc=$?
  if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2> /dev/null || true; fi
  if [ "$rc" -ne 0 ]; then
    for log in *.log; do
      [ -e "$log" ] || continue
      echo "--- $log"
      tail -n 40 "$log"
    done
  fi
}
trap on_exit EXIT

# serve NAME ARGS...: starts streamets_serve on a frame-driven clock and an
# ephemeral port (NAME.port, log NAME.serve.log); returns once it listens.
serve() {
  local name=$1
  shift
  rm -f "$name.port"
  "$BIN/streamets_serve" --listen 127.0.0.1:0 --port-file "$name.port" \
    --frame-clock --wall-limit 120s "$@" > "$name.serve.log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$name.port" ] && return 0
    sleep 0.1
  done
  echo "server $name never published its port"
  return 1
}

# feed NAME ARGS...: runs streamets_feed against server NAME (log
# NAME.feed.log).
feed() {
  local name=$1
  shift
  "$BIN/streamets_feed" --connect 127.0.0.1:"$(cat "$name.port")" "$@" \
    > "$name.feed.log" 2>&1
}

# serve_wait NAME [RC]: waits for server NAME and checks its exit code
# (default 0).
serve_wait() {
  local name=$1 expected=${2:-0} rc=0
  wait "$SERVE_PID" || rc=$?
  SERVE_PID=
  if [ "$rc" -ne "$expected" ]; then
    echo "server $name exited $rc, expected $expected"
    return 1
  fi
}
