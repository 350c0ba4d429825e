#!/usr/bin/env bash
# gates.sh — run the named tests of one package and fail unless every one
# of them ran and passed. A bare `go test -run 'A|B|C'` passes silently when
# a name stops matching (the test was renamed, moved or deleted), which
# would quietly retire the gate; here a missing name is a failure.
#
#   scripts/gates.sh ./internal/assign TestMatcherSteadyStateAllocFree TestSortPendingAllocFree
#
# Names are exact top-level test names, not patterns. GO overrides the go
# binary (default: go).
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 PACKAGE TEST..." >&2
    exit 2
fi
pkg=$1
shift
GO=${GO:-go}

regex="^($(IFS='|'; echo "$*"))\$"
out=$(mktemp)
trap 'rm -f "$out"' EXIT

status=0
"$GO" test "$pkg" -run "$regex" -v 2>&1 | tee "$out" || status=$?
missing=()
for name in "$@"; do
    grep -q -- "^--- PASS: $name (" "$out" || missing+=("$name")
done
if [ ${#missing[@]} -gt 0 ]; then
    echo "gates.sh: $pkg: no passing run of: ${missing[*]}" >&2
    exit 1
fi
exit "$status"
