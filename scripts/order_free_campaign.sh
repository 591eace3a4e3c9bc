#!/usr/bin/env bash
# Order-free network campaign: an ldp_serve collector with no
# --expect-shards, fed by 4 ldp_report --connect reporters one at a time in
# reverse shard order (3, 2, 1, 0), must print the same estimates as the
# file-based ldp_report --out | ldp_aggregate run, and its session snapshot
# must be byte-identical to the file run's. Each shard merges the moment it
# closes, so this holds only because merges are exact integer sums.
#
#   scripts/order_free_campaign.sh BUILD_DIR
#
# BUILD_DIR holds the ldp_generate/report/aggregate/serve binaries. Exits
# non-zero on the first difference.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
B=$1
T=$(mktemp -d)
SERVER=""
cleanup() {
  if [ -n "$SERVER" ]; then kill "$SERVER" 2>/dev/null || true; fi
  rm -rf "$T"
}
trap cleanup EXIT

estimates() { sed -n '/numeric attribute means/,$p' "$1"; }

"$B/ldp_generate" --dataset br --rows 20000 --out "$T/census" --seed 7
# File-based reference: 4 shards aggregated in shard order.
"$B/ldp_report" --schema "$T/census.schema" --data "$T/census.csv" \
    --epsilon 4 --seed 42 --shards 4 --out "$T/file"
"$B/ldp_aggregate" --schema "$T/census.schema" --snapshot-out "$T/file.ldpe" \
    "$T"/file.shard-*.ldps > "$T/file.out"

"$B/ldp_serve" --schema "$T/census.schema" --epsilon 4 \
    --listen "unix:$T/collector.sock" --snapshot-out "$T/serve.ldpe" \
    > "$T/serve.out" 2>&1 &
SERVER=$!
for _ in $(seq 100); do
  grep -q "listening on" "$T/serve.out" 2>/dev/null && break
  sleep 0.1
done
grep -q "listening on" "$T/serve.out"

for s in 3 2 1 0; do
  "$B/ldp_report" --schema "$T/census.schema" --data "$T/census.csv" \
      --epsilon 4 --seed 42 --shards 4 --shard-index $s \
      --connect "unix:$T/collector.sock" > "$T/client.$s.out"
done

kill -TERM "$SERVER"
wait "$SERVER"
SERVER=""

diff <(estimates "$T/file.out") <(estimates "$T/serve.out")
cmp "$T/file.ldpe" "$T/serve.ldpe"
echo "order-free campaign: OK"
