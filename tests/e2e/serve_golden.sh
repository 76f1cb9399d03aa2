#!/usr/bin/env bash
# The canned serving session replays byte-for-byte against its golden
# responses. Query responses carry integer modeled costs only, so the
# golden file must hold on every compiler.
#
# Usage: serve_golden.sh PATH/TO/ditile_serve SESSION GOLDEN
# Registered with ctest under the "e2e" label.
set -eu

serve=$(realpath "$1")
session=$(realpath "$2")
golden=$(realpath "$3")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

"$serve" --script="$session" > serve_responses.txt
diff serve_responses.txt "$golden"
echo "serve responses match the golden session"
