#!/usr/bin/env bash
# CLI pipeline smoke: ldp_report | ldp_aggregate must reproduce ldp_collect
# bit for bit, the session-snapshot round trip and every --threads count of
# ldp_aggregate (ServerSession::IngestInputs) must agree exactly, and an
# all-numeric schema must do the same over the Algorithm-4 numeric stream.
#
#   scripts/cli_smoke.sh BUILD_DIR
#
# BUILD_DIR holds the ldp_generate/collect/report/aggregate binaries. Exits
# non-zero on the first estimate block that differs.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
B=$1
T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

estimates() { sed -n '/numeric attribute means/,$p' "$1"; }

"$B/ldp_generate" --dataset br --rows 20000 --out "$T/census" --seed 7
"$B/ldp_collect" --schema "$T/census.schema" --data "$T/census.csv" \
    --epsilon 4 --seed 42 > "$T/collect.out"
# Single shard sums in the same order as the in-process run, so the
# client/server split must reproduce ldp_collect bit for bit.
"$B/ldp_report" --schema "$T/census.schema" --data "$T/census.csv" \
    --epsilon 4 --seed 42 --shards 1 --out "$T/single"
"$B/ldp_aggregate" --schema "$T/census.schema" "$T"/single.shard-*.ldps \
    > "$T/single.out"
diff <(estimates "$T/collect.out") <(estimates "$T/single.out")
# Multi-shard streams and the session-snapshot round trip must agree
# exactly.
"$B/ldp_report" --schema "$T/census.schema" --data "$T/census.csv" \
    --epsilon 4 --seed 42 --shards 3 --out "$T/census"
"$B/ldp_aggregate" --schema "$T/census.schema" \
    --snapshot-out "$T/census.ldpe" "$T"/census.shard-*.ldps > "$T/aggregate.out"
"$B/ldp_aggregate" --schema "$T/census.schema" "$T/census.ldpe" \
    > "$T/snapshot.out"
diff <(estimates "$T/aggregate.out") <(estimates "$T/snapshot.out")
# Concurrent session ingest (--threads) must be bit-identical to the
# serial run at every thread count.
for t in 2 8; do
  "$B/ldp_aggregate" --schema "$T/census.schema" --threads $t \
      "$T"/census.shard-*.ldps > "$T/aggregate.t$t.out"
  diff <(estimates "$T/aggregate.out") <(estimates "$T/aggregate.t$t.out")
done
# All-numeric schemas travel as Algorithm-4 numeric streams and must
# reproduce the in-process run bit for bit too.
printf 'numeric x -1 1\nnumeric y -1 1\nnumeric z -1 1\n' > "$T/num.schema"
{ echo "x,y,z"; for i in $(seq 1 2000); do echo "0.5,-0.25,0.125"; done; } \
    > "$T/num.csv"
"$B/ldp_collect" --schema "$T/num.schema" --data "$T/num.csv" \
    --epsilon 6 --seed 9 > "$T/numcollect.out"
"$B/ldp_report" --schema "$T/num.schema" --data "$T/num.csv" \
    --epsilon 6 --seed 9 --shards 1 --out "$T/num" > "$T/numreport.out"
grep -q "numeric stream" "$T/numreport.out"
"$B/ldp_aggregate" --schema "$T/num.schema" "$T"/num.shard-*.ldps \
    > "$T/numagg.out"
diff <(estimates "$T/numcollect.out") <(estimates "$T/numagg.out")
echo "cli smoke: OK"
