#!/usr/bin/env bash
# Multi-chip scale-out identity checks.
#
#  - --chips=1 is byte-identical to a run without the flag, in the CSV
#    and in the dumped plan, which stays format 2.
#  - --chips=2,4 CSVs are bit-identical at --threads 1 and 4, and so is
#    the --chips=4 Chrome trace.
#  - A dumped scale-out plan is format 3 and replays to the same CSV
#    without re-specifying --chips.
#
# Usage: scaleout_identity.sh PATH/TO/ditile_run
# Registered with ctest under the "e2e" label.
set -eu

run=$(realpath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
wd=(--dataset=WD --scale=0.1 --snapshots=4)

"$run" "${wd[@]}" --all-accels --csv > chips_none.csv
"$run" "${wd[@]}" --all-accels --csv --chips=1 > chips_one.csv
diff chips_none.csv chips_one.csv
"$run" "${wd[@]}" --accel=ditile --plan-out=plan_none.json \
  --csv > /dev/null
"$run" "${wd[@]}" --accel=ditile --chips=1 \
  --plan-out=plan_one.json --csv > /dev/null
diff plan_none.json plan_one.json
grep -q '"plan_format":2' plan_one.json
echo "chips=1 byte-identical to a single-chip run"

for m in 2 4; do
  "$run" "${wd[@]}" --accel=ditile --csv --chips="$m" \
    --threads=1 > "chips${m}_t1.csv"
  "$run" "${wd[@]}" --accel=ditile --csv --chips="$m" \
    --threads=4 > "chips${m}_t4.csv"
  diff "chips${m}_t1.csv" "chips${m}_t4.csv"
done
"$run" "${wd[@]}" --accel=ditile --csv --chips=4 --threads=1 \
  --trace=chips4_t1.trace.json > /dev/null
"$run" "${wd[@]}" --accel=ditile --csv --chips=4 --threads=4 \
  --trace=chips4_t4.trace.json > /dev/null
test -s chips4_t1.trace.json
cmp chips4_t1.trace.json chips4_t4.trace.json
echo "multi-chip runs and traces bit-identical across thread counts"

"$run" "${wd[@]}" --accel=ditile --chips=2 \
  --plan-out=so.plan.json --csv > so_direct.csv
grep -q '"plan_format":3' so.plan.json
grep -q '"scaleout":{"chips":2' so.plan.json
"$run" "${wd[@]}" --plan-in=so.plan.json --csv > so_replay.csv
diff so_direct.csv so_replay.csv
echo "format-3 plan replays byte-identically"
