# Shared helpers for the soak scripts (sourced, not run).  Every wait is
# a bounded poll, never a fixed sleep: a soak proceeds as soon as the
# daemon is ready and fails loudly when it never gets there.

# fresh_dir <dir>: empties the soak's scratch directory and enters it.
fresh_dir() {
  rm -rf "$1"
  mkdir -p "$1"
  cd "$1"
}

# poll <seconds> <command...>: re-runs the command every 0.1 s until it
# succeeds; fails after the bound.
poll() {
  local limit=$1
  shift
  local tries=$((limit * 10)) i
  for ((i = 0; i < tries; i++)); do
    if "$@"; then return 0; fi
    sleep 0.1
  done
  echo "soak: timed out after ${limit}s waiting for: $*" >&2
  return 1
}

# The daemon the soak is talking to; killed on exit so a failing soak
# never leaves it running (or holding the test runner's output pipe).
SRV=
kill_daemon() {
  if [ -n "$SRV" ]; then
    kill -9 "$SRV" 2>/dev/null || true
    wait "$SRV" 2>/dev/null || true
    SRV=
  fi
}
trap kill_daemon EXIT

# crash_daemon: kill -9 the daemon and require it to have left its
# socket file behind, so the next start_daemon exercises the daemon's
# stale-socket replacement.
crash_daemon() {
  kill_daemon
  test -S "$SOCK"
}

status_ok() { "$CLI" --connect "$SOCK" --remote status > /dev/null 2>&1; }

# start_daemon <stdout file> <robotune_serve args...>: launches the
# daemon on $SOCK (pid in $SRV) and waits for the socket file and a
# status answer.  By then the daemon's recovery report is flushed.  A
# socket file left by a killed daemon is not removed here: the daemon
# must replace it itself, and the status poll waits until it has.
start_daemon() {
  local out=$1
  shift
  "$SERVE" "$@" > "$out" &
  SRV=$!
  poll 60 test -S "$SOCK"
  poll 60 status_ok
}

# stop_daemon: graceful shutdown over the socket, then reap.
stop_daemon() {
  "$CLI" --connect "$SOCK" --remote shutdown
  wait "$SRV" || true
  SRV=
}

# fleet_field <key> <value>: the fleet status reports key=value.
fleet_field() {
  "$CLI" --connect "$SOCK" --remote status | grep -qx "$1=$2"
}
