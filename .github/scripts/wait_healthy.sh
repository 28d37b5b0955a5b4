#!/usr/bin/env bash
# Wait up to 60 s for a local `repro serve` to answer /healthz.
# usage: wait_healthy.sh PORT LOG — LOG is printed if it never does.
for _ in $(seq 1 60); do
  if curl -sf "http://127.0.0.1:$1/healthz" > /dev/null; then
    exit 0
  fi
  sleep 1
done
echo "service on port $1 never became healthy" >&2
cat "$2" >&2
exit 1
