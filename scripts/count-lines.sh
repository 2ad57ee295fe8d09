#!/usr/bin/env bash
# Counts the lines of every crate's `src/` (blank and comment lines
# included, as `wc -l` counts them), three ways:
#
#   non-test  every line outside `#[cfg(test)]` items: an attribute line
#             `#[cfg(test)]` drops itself and the item after it (a brace
#             block, or one line ending in `;`), and a file that is only
#             declared as `#[cfg(test)] mod name;` drops whole;
#   shipped   non-test, also dropping `#[cfg(any(test, feature =
#             "reference"))]` items: what `cargo build` compiles;
#   cut       the older convention: each file up to its first
#             `#[cfg(test)]` line. It misreads a file whose first such
#             line gates a declaration (`mirage-rl/src/lib.rs`'s
#             `mod env;`) rather than a trailing test module.
#
# Braces are counted per line, so a `{` or `}` inside a string or char
# literal of a skipped item would miscount it; the sources have none.
#
#   scripts/count-lines.sh            # per crate, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

test_attr='^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$'
shipped_attr='^[[:space:]]*#\[cfg\((test|any\(test, feature = "reference"\))\)\][[:space:]]*$'

# Lines of the files given, skipping each item under an attribute line
# that matches $1.
count_skipping() {
    local pat=$1
    shift
    [ "$#" -eq 0 ] && { echo 0; return; }
    awk -v pat="$pat" '
        function depth_of(s,   t, opens) {
            t = s; opens = gsub(/\{/, "", t)
            t = s; return opens - gsub(/\}/, "", t)
        }
        state == 0 && $0 ~ pat { state = 1; next }
        state == 1 {
            if ($0 ~ /^[[:space:]]*#\[/) next
            d = depth_of($0)
            if (d > 0) { depth = d; state = 2 }
            else if ($0 ~ /[;}][[:space:]]*$/) state = 0
            next
        }
        state == 2 { depth += depth_of($0); if (depth <= 0) state = 0; next }
        { n++ }
        END { print n + 0 }' "$@"
}

# Lines of each file up to its first `#[cfg(test)]` line, summed.
count_cut() {
    local total=0 f n
    for f in "$@"; do
        n=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        total=$((total + n))
    done
    echo "$total"
}

# The files of a crate's src/ that a `#[cfg(test)] mod name;` declares.
test_only_files() {
    local f dir
    for f in $(grep -rl --include='*.rs' -E "$test_attr" "$1"); do
        case "$(basename "$f")" in
        lib.rs | main.rs | mod.rs) dir=$(dirname "$f") ;;
        *) dir="${f%.rs}" ;;
        esac
        grep -A1 -E "$test_attr" "$f" |
            sed -n 's/^[[:space:]]*\(pub[^ ]* \)\{0,1\}mod \([a-z_0-9]*\);.*/\2/p' |
            while read -r m; do
                [ -f "$dir/$m.rs" ] && echo "$dir/$m.rs"
                [ -f "$dir/$m/mod.rs" ] && echo "$dir/$m/mod.rs"
            done
    done
    return 0
}

printf '%-16s %9s %9s %9s\n' crate non-test shipped cut
tot_nt=0 tot_sh=0 tot_cut=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    excluded=$(test_only_files "$src" | sort -u)
    files=()
    while IFS= read -r f; do
        grep -qxF "$f" <<<"$excluded" || files+=("$f")
    done < <(find "$src" -name '*.rs' | sort)
    nt=$(count_skipping "$test_attr" "${files[@]}")
    sh=$(count_skipping "$shipped_attr" "${files[@]}")
    mapfile -t all < <(find "$src" -name '*.rs' | sort)
    cut=$(count_cut "${all[@]}")
    printf '%-16s %9d %9d %9d\n' "$crate" "$nt" "$sh" "$cut"
    tot_nt=$((tot_nt + nt)) tot_sh=$((tot_sh + sh)) tot_cut=$((tot_cut + cut))
done
printf '%-16s %9d %9d %9d\n' total "$tot_nt" "$tot_sh" "$tot_cut"
