#!/usr/bin/env bash
# Replay a fixed burst of queries against a local `repro serve` and
# write one JSON response per line, so two servers can be byte-diffed.
# usage: burst.sh MODE PORT OUT
#   query    /query source + target at nodes 0 1 2 3 5 8 13 21
#   surface  /query source, /topk, /multiseed, /pair at nodes 0 2 3 5 8
#   all      /query source + target, /topk, /multiseed, /pair at
#            nodes 0 2 3 5 8 13 21 34
set -e
mode=$1 port=$2 out=$3
case "$mode" in
  query) nodes="0 1 2 3 5 8 13 21" kinds="source target" rich=0 ;;
  surface) nodes="0 2 3 5 8" kinds="source" rich=1 ;;
  all) nodes="0 2 3 5 8 13 21 34" kinds="source target" rich=1 ;;
  *) echo "unknown burst mode '$mode'" >&2; exit 2 ;;
esac
post() {  # $1 = path, $2 = JSON body
  curl -sf -X POST "http://127.0.0.1:$port$1" -d "$2" >> "$out"
  echo >> "$out"
}
: > "$out"
for node in $nodes; do
  for kind in $kinds; do
    post /query "{\"kind\": \"$kind\", \"node\": $node, \"top\": 10}"
  done
  if [ "$rich" = 1 ]; then
    post /topk "{\"node\": $node, \"k\": 5}"
    post /multiseed "{\"seeds\": [$node, 7, 11], \"weights\": [0.5, 0.3, 0.2], \"top\": 10}"
    post /pair "{\"source\": $node, \"target\": 13}"
  fi
done
