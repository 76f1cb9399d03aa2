#!/usr/bin/env bash
# The scheduled task graph is a pure function of the plan: the
# canonical `ditile_inspect plan --tasks` dump must be bit-identical
# at --threads 1 and 4, and must be a well-formed schedule (tasks and
# edges present, makespan = the last finish, a critical path marked).
#
# Usage: task_dump_identity.sh PATH/TO/ditile_inspect
# Registered with ctest under the "e2e" label.
set -eu

inspect=$(realpath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
point=(--dataset=WD --scale=0.1 --snapshots=4 --accel=ditile)

"$inspect" plan --tasks=tasks_t1.json "${point[@]}" --threads=1
"$inspect" plan --tasks=tasks_t4.json "${point[@]}" --threads=4
diff tasks_t1.json tasks_t4.json
python3 - <<'PY'
import json
doc = json.load(open("tasks_t1.json"))
assert doc["tasks"] > 0 and doc["edges"] > 0
assert doc["makespan"] == max(t["finish"] for t in doc["schedule"])
assert any(t["critical"] for t in doc["schedule"])
print(f"{doc['tasks']} tasks, {doc['edges']} edges, "
      f"makespan {doc['makespan']}")
PY
echo "task-graph dump bit-identical across thread counts"
