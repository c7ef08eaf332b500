#!/usr/bin/env bash
# External ask/tell soak (DESIGN.md §16): 8 external sessions lease
# their whole first round, the daemon is kill -9'd while every lease is
# live, and the restarted daemon must re-issue exactly the same pending
# set — nothing lost, nothing double-issued — after which the CLI's
# drive loop completes every session against the simulated cluster.
#
#   external_lease_kill9.sh <robotune_cli> <robotune_serve> <scratch dir>
set -euxo pipefail
CLI=$1 SERVE=$2
source "$(dirname "$0")/common.sh"
fresh_dir "$3"
SOCK=extfleet/robotune.sock

# lease <session id> <file>: asks for up to 16 suggestions and writes
# the granted eval indices; succeeds once the session granted any.
lease() {
  "$CLI" --connect "$SOCK" --remote suggest --session "$1" --limit 16 \
    | awk '$1 == "grant" {print $2}' > "$2"
  [ -s "$2" ]
}

start_daemon serve.out --root extfleet --max-live 8 --slots 1 \
  --lease-timeout 600
for seed in 1 2 3 4 5 6 7 8; do
  "$CLI" --connect "$SOCK" --remote start --mode external \
    --workload PR --dataset 1 --budget 6 --init 4 --batch 4 \
    --selection-samples 20 --seed "$seed"
done
# Lease every session's first round (4 suggestions each) and hold the
# leases across the crash.
for id in 1 2 3 4 5 6 7 8; do
  poll 120 lease "$id" "pre-$id.txt"
  sort -o "pre-$id.txt" "pre-$id.txt"
  [ "$(wc -l < "pre-$id.txt")" = 4 ]
done
crash_daemon

# Restart with a short lease timeout so the drive loop below reclaims
# anything this script leases and abandons.
start_daemon extrecovery.out --root extfleet --max-live 8 --slots 1 \
  --lease-timeout 3
cat extrecovery.out
grep -q ' 0 quarantined' extrecovery.out
# A restart voids runtime leases; re-asking must surface the exact
# pending set: same indices, each exactly once.
for id in 1 2 3 4 5 6 7 8; do
  poll 120 lease "$id" "post-$id.txt"
  sort "post-$id.txt" | cmp - "pre-$id.txt"
  [ "$(sort -u "post-$id.txt" | wc -l)" = "$(wc -l < "post-$id.txt")" ]
done
# The reaper reclaims the leases this script just abandoned, then each
# session is driven to completion through ask/tell.
for seed in 1 2 3 4 5 6 7 8; do
  "$CLI" --connect "$SOCK" --remote drive --session "$seed" \
    --workload PR --dataset 1 --seed "$seed"
done
"$CLI" --connect "$SOCK" --remote status | tee extfleet.out
grep -qx 'done=8' extfleet.out
# Reclaims were journaled and counted, and nothing was lost: every
# session holds exactly its budget of evaluations.
grep -q 'reclaimed=' extfleet.out
for id in 1 2 3 4 5 6 7 8; do
  "$CLI" --connect "$SOCK" --remote status --session "$id" \
    | grep -qx 'evals=6'
done
stop_daemon
