#!/usr/bin/env bash
# CLI chaos soak (DESIGN.md §11): a session with every surrogate fit
# forced to fail must complete its budget on the degradation ladder,
# and a torn checkpoint must still resume (recover mode) to completion.
#
#   cli_chaos_resume.sh <robotune_cli> <robotune_serve> <scratch dir>
set -euxo pipefail
CLI=$1 SERVE=$2
source "$(dirname "$0")/common.sh"
fresh_dir "$3"

# Degraded session, full budget, fsync'd checkpoint.
"$CLI" --workload TS --dataset 1 --tuner robotune --budget 40 --seed 5 \
  --parallel 2 --chaos-profile surrogate --checkpoint soak.ckpt --fsync \
  --quiet | tee soak_full.out
grep -q 'evals=40' soak_full.out

# Half budget, then tear the checkpoint tail (a simulated torn write)
# and resume in recover mode; the session must still complete.
"$CLI" --workload TS --dataset 1 --tuner robotune --budget 20 --seed 5 \
  --parallel 2 --chaos-profile surrogate --checkpoint half.ckpt --quiet
truncate -s -7 half.ckpt
head -c 12 /dev/zero >> half.ckpt
"$CLI" --workload TS --dataset 1 --tuner robotune --budget 20 --seed 5 \
  --parallel 2 --chaos-profile surrogate --checkpoint half.ckpt \
  --resume --recover --quiet | tee soak_resumed.out
grep -q 'evals=20' soak_resumed.out
