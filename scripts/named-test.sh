#!/usr/bin/env bash
# Runs `cargo test -q "$@"` and fails unless at least one test passed.
#
# `cargo test <filter>` exits 0 when the filter matches nothing, so a CI
# step that runs a test by name would stay green after the test is
# deleted or renamed. This wrapper sums the "N passed" counts of every
# test binary it ran and exits non-zero when the sum is 0.
#
#   scripts/named-test.sh -p mirage-core --test crash_resume crash_resume_smoke
set -euo pipefail

log=$(mktemp)
trap 'rm -f "$log"' EXIT

cargo test -q "$@" 2>&1 | tee "$log"

passed=$(sed -n 's/^test result: [a-zA-Z]*\. \([0-9][0-9]*\) passed;.*/\1/p' "$log" |
    awk '{ n += $1 } END { print n + 0 }')
if [ "$passed" -eq 0 ]; then
    echo "named-test.sh: no test passed for: cargo test -q $*" >&2
    exit 1
fi
