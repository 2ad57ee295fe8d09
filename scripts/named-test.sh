#!/usr/bin/env bash
# Runs `cargo test -q "$@"` and fails unless at least one test passed and
# every filter after `--` selects at least one test.
#
# `cargo test <filter>` exits 0 when the filter matches nothing, so a CI
# step that runs a test by name would stay green after the test is
# deleted or renamed. This wrapper sums the "N passed" counts of every
# test binary it ran and exits non-zero when the sum is 0. A step with
# several filters after `--` would still pass with one of them renamed
# away, so each of those filters is first listed on its own
# (`cargo test -q <args> -- --list <filter>`) and must name a test.
#
#   scripts/named-test.sh -p mirage-core --test crash_resume crash_resume_smoke
#   scripts/named-test.sh -p mirage-rl --lib -- pair_validators poisoned_act_paths
set -euo pipefail

cargo_args=()
filters=()
after_sep=0
takes_value=0
for arg in "$@"; do
    if [ "$after_sep" -eq 0 ]; then
        if [ "$arg" = "--" ]; then after_sep=1; else cargo_args+=("$arg"); fi
    elif [ "$takes_value" -eq 1 ]; then
        takes_value=0
    else
        case "$arg" in
        --skip | --test-threads | --format | --color | --logfile) takes_value=1 ;;
        -*) ;;
        *) filters+=("$arg") ;;
        esac
    fi
done

for filter in ${filters[@]+"${filters[@]}"}; do
    listed=$(cargo test -q ${cargo_args[@]+"${cargo_args[@]}"} -- --list "$filter" | grep -c ': test$' || true)
    if [ "$listed" -eq 0 ]; then
        echo "named-test.sh: filter '$filter' selects no test in: cargo test -q $*" >&2
        exit 1
    fi
done

log=$(mktemp)
trap 'rm -f "$log"' EXIT

cargo test -q "$@" 2>&1 | tee "$log"

passed=$(sed -n 's/^test result: [a-zA-Z]*\. \([0-9][0-9]*\) passed;.*/\1/p' "$log" |
    awk '{ n += $1 } END { print n + 0 }')
if [ "$passed" -eq 0 ]; then
    echo "named-test.sh: no test passed for: cargo test -q $*" >&2
    exit 1
fi
