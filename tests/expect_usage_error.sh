#!/usr/bin/env bash
# Runs a command that must be rejected as a usage error: exit status 2
# and MESSAGE on stderr.
#
#   expect_usage_error.sh MESSAGE COMMAND [ARGS...]
set -uo pipefail
message=$1
shift
stderr=$("$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -ne 2 ]; then
  echo "expected exit status 2, got $status" >&2
  exit 1
fi
if ! grep -qF -- "$message" <<<"$stderr"; then
  echo "stderr lacks '$message':" >&2
  echo "$stderr" >&2
  exit 1
fi
