#!/usr/bin/env bash
# Grouped batch planning and the SIMD slot kernels must not change a
# single output byte:
#
#  - ditile_sweep CSVs over WD (dis 0.02,0.02,0.10, snapshots 4,8,
#    every accelerator) are byte-identical with batch planning on and
#    off and with SIMD on and off, at --threads 1 and 4; the
#    duplicated dis value forces a real shared-graph group;
#  - ditile_run's plan JSON is byte-identical with SIMD on and off.
#
# --batch-plan=off and DITILE_NO_SIMD=1 are the escape hatches the
# diffs pivot on.
#
# Usage: batch_simd_identity.sh PATH/TO/ditile_sweep PATH/TO/ditile_run
# Registered with ctest under the "e2e" label.
set -eu

sweep=$(realpath "$1")
run=$(realpath "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
grid=(--dataset=WD --scale=0.3 --dis=0.02,0.02,0.10 --snapshots=4,8
      --all-accels)

for t in 1 4; do
  "$sweep" "${grid[@]}" --threads="$t" > "sweep_batch_t$t.csv"
  "$sweep" "${grid[@]}" --threads="$t" --batch-plan=off \
    > "sweep_nobatch_t$t.csv"
  DITILE_NO_SIMD=1 "$sweep" "${grid[@]}" --threads="$t" \
    > "sweep_nosimd_t$t.csv"
  diff "sweep_batch_t$t.csv" "sweep_nobatch_t$t.csv"
  diff "sweep_batch_t$t.csv" "sweep_nosimd_t$t.csv"
done
echo "sweep CSV byte-identical with batch planning and SIMD on and off"

point=(--dataset=WD --scale=0.3 --snapshots=4 --accel=ditile)
"$run" "${point[@]}" --plan-out=plan_simd_on.json --csv > /dev/null
DITILE_NO_SIMD=1 "$run" "${point[@]}" --plan-out=plan_simd_off.json \
  --csv > /dev/null
diff plan_simd_on.json plan_simd_off.json
echo "plan JSON byte-identical with SIMD on and off"
