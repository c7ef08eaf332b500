#!/usr/bin/env bash
# Daemon fleet soak (DESIGN.md §13): start a fleet through the socket
# client, kill -9 the daemon mid-flight, restart, and require every
# session to finish with a journal byte-identical to a standalone CLI
# run of the same spec — crash recovery must not perturb results, only
# wall-clock.  Then corrupt one finished journal and require the next
# restart to quarantine exactly that session.
#
#   daemon_fleet_kill9.sh <robotune_cli> <robotune_serve> <scratch dir>
set -euxo pipefail
CLI=$1 SERVE=$2
source "$(dirname "$0")/common.sh"
fresh_dir "$3"
SOCK=fleet/robotune.sock

session_started() {
  "$CLI" --connect "$SOCK" --remote status --session 1 | grep -q '^evals=[1-9]'
}

start_daemon serve.out --root fleet --max-live 2 --slots 1
for seed in 1 2 3 4; do
  "$CLI" --connect "$SOCK" --remote start --budget 24 --init 4 \
    --selection-samples 20 --parallel 1 --seed "$seed"
done
# Crash as soon as the first session has journaled an evaluation: the
# later sessions are still queued or running.
poll 120 session_started
crash_daemon

start_daemon recovery.out --root fleet --max-live 2 --slots 1
cat recovery.out
grep -q ' 0 quarantined' recovery.out
poll 300 fleet_field done 4
stop_daemon

# Byte-identity: session ids were assigned 1..4 in start order.
for seed in 1 2 3 4; do
  "$CLI" --budget 24 --init 4 --selection-samples 20 --parallel 1 \
    --seed "$seed" --checkpoint "solo-$seed.journal" --quiet
  cmp "solo-$seed.journal" "fleet/session-$seed.journal"
done
# Observability across the crash: the fleet event journal is appended
# through a kill -9 and two restarts as ONE recoverable stream —
# recovery verdicts and both daemon lifetimes are in it.
grep -q '"kind":"recovery\.' fleet/events.jsonl
grep -q '"kind":"daemon.stop"' fleet/events.jsonl

# Corrupt a finished session's journal header; the next restart must
# quarantine exactly that session, journal the verdict, and keep the
# other three sessions served.
printf 'garbage' | dd of=fleet/session-4.journal bs=1 count=7 conv=notrunc
start_daemon recovery2.out --root fleet --max-live 2 --slots 1 \
  --metrics-file fleet.prom
cat recovery2.out
grep -q ' 1 quarantined' recovery2.out
poll 60 fleet_field done 3
"$CLI" --connect "$SOCK" --remote metrics --format prom \
  | grep -q '^robotune_service_clients_connected'
stop_daemon
grep -q '"kind":"recovery.quarantined"' fleet/events.jsonl
# The shutdown path dumped a scrapeable Prometheus text file.
grep -q '^robotune_' fleet.prom
