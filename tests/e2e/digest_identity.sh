#!/usr/bin/env bash
# The workload digest layer must not change a single output byte:
#
#  - ditile_sweep CSVs over WD (dis 0.02,0.10, snapshots 4,8, every
#    accelerator) are byte-identical with digests on and off, at
#    --threads 1 and 4;
#  - ditile_run's plan JSON and CSV are byte-identical on and off.
#
# DITILE_NO_DIGEST=1 is the escape hatch the diffs pivot on.
#
# Usage: digest_identity.sh PATH/TO/ditile_sweep PATH/TO/ditile_run
# Registered with ctest under the "e2e" label.
set -eu

sweep=$(realpath "$1")
run=$(realpath "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
grid=(--dataset=WD --scale=0.3 --dis=0.02,0.10 --snapshots=4,8
      --all-accels)

for t in 1 4; do
  "$sweep" "${grid[@]}" --threads="$t" > "sweep_on_t$t.csv"
  DITILE_NO_DIGEST=1 "$sweep" "${grid[@]}" --threads="$t" \
    > "sweep_off_t$t.csv"
  diff "sweep_on_t$t.csv" "sweep_off_t$t.csv"
done
echo "sweep CSV byte-identical with digests on and off"

point=(--dataset=WD --scale=0.3 --snapshots=4 --accel=ditile)
"$run" "${point[@]}" --plan-out=plan_on.json --csv > run_on.csv
DITILE_NO_DIGEST=1 "$run" "${point[@]}" --plan-out=plan_off.json \
  --csv > run_off.csv
diff plan_on.json plan_off.json
diff run_on.csv run_off.csv
echo "plan JSON and run CSV byte-identical on vs off"
