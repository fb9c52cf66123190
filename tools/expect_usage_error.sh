#!/bin/sh
# Runs a command and passes only if it exits with status exactly 2 after
# printing exactly one line on stderr: the CLI's contract for a rejected
# input.  An abort (134), a crash or a silent success all fail.
#
#   sh expect_usage_error.sh <command> [args...]
err=$("$@" 2>&1 >/dev/null)
code=$?
lines=$(printf '%s' "$err" | grep -c '')
if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ]; then
  echo "expected exit 2 with one stderr line; got exit $code with $lines:"
  printf '%s\n' "$err"
  exit 1
fi
printf 'exit 2: %s\n' "$err"
