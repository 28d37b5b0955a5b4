#!/usr/bin/env bash
# Stop a local `repro serve` with SIGINT and wait up to 10 s for it.
# usage: stop_server.sh PID — fails (after a SIGKILL) if it never exits.
kill -INT "$1"
for _ in $(seq 1 20); do
  kill -0 "$1" 2> /dev/null || exit 0
  sleep 0.5
done
echo "service did not exit on SIGINT" >&2
kill -KILL "$1" || true
exit 1
