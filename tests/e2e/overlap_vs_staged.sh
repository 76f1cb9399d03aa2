#!/usr/bin/env bash
# Overlap vs staged makespan sanity.
#
# Staged (--no-overlap) is the overlap task DAG plus barrier edges, so
# the overlap scheduler must never report a longer makespan than the
# staged timeline on a fault-free run.
#
# Usage: overlap_vs_staged.sh PATH/TO/ditile_run
# Registered with ctest under the "e2e" label.
# No pipefail: `grep -q` may close the pipe before ditile_run is done.
set -eu

run=$(realpath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

"$run" --dataset=WD --scale=0.1 \
  --snapshots=4 --accel=all --csv > overlap_run.csv
"$run" --dataset=WD --scale=0.1 \
  --snapshots=4 --accel=all --csv --no-overlap \
  > staged_run.csv
python3 - <<'PY'
import csv

def cycles(path):
    with open(path) as f:
        return {row["Accelerator"]: int(row["Cycles"])
                for row in csv.DictReader(f)}

overlap, staged = cycles("overlap_run.csv"), \
    cycles("staged_run.csv")
assert overlap.keys() == staged.keys()
for accel in sorted(overlap):
    assert overlap[accel] <= staged[accel], (
        f"{accel}: overlap {overlap[accel]} > "
        f"staged {staged[accel]}")
    print(f"{accel}: overlap {overlap[accel]} <= "
          f"staged {staged[accel]}")
PY
"$run" --dataset=WD --scale=0.1 \
  --snapshots=4 --accel=ditile --task-stats \
  | grep -q "critical path"
echo "overlap makespan <= staged on every smoke point"
