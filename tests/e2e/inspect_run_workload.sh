#!/usr/bin/env bash
# ditile_inspect and ditile_run read the workload flags into the same
# graph: `ditile_inspect plan --dump` and `ditile_run --plan-out`
# (staged, as the library default is) write byte-identical plan JSON
# for the same flags, with and without --dissimilarity.
#
# Usage: inspect_run_workload.sh PATH/TO/ditile_inspect PATH/TO/ditile_run
# Registered with ctest under the "e2e" label.
set -eu

inspect=$(realpath "$1")
run=$(realpath "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
wd=(--dataset=WD --scale=0.05 --snapshots=4)

for extra in "" --dissimilarity=0.02; do
  "$inspect" plan --dump=inspect.json "${wd[@]}" $extra 2> /dev/null
  "$run" "${wd[@]}" $extra --no-overlap --plan-out=run.json \
    --csv > /dev/null
  cmp inspect.json run.json
  echo "inspect and run plans byte-identical (${extra:-default})"
done
