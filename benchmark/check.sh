#!/usr/bin/env bash
# Regression check of the benchmark against itself: every workload runs
# twice untraced and twice traced on one seed, and the check fails if
#   - a run exits non-zero or reports correct = false or failed > 0,
#   - a name in BENCHMARK.json is missing from a result,
#   - an end-to-end metric of the two untraced runs differs by more than
#     its bound (twice its bound for setup_s: it is five one-shot set-ups
#     per run, and its bound is meant for medians of ten runs),
#   - a deterministic per-layer metric (a count, a simulated statistic, a
#     quality number) of the two traced runs differs at all.
#
# usage: benchmark/check.sh [--seed N] [--only <workload>]
#
# Seed 42 by default. Before trusting a change, also run it with a seed
# not used while the change was written: every output check has to pass
# there too. Run from anywhere; builds into benchmark/target.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=42
only=""
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --only) only="$2"; shift 2 ;;
        *) echo "usage: benchmark/check.sh [--seed N] [--only <workload>]" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec python3 - "$seed" "$only" <<'EOF'
import json, subprocess, sys

seed, only = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"] if only in ("", w["name"])]
if not workloads:
    sys.exit(f"no workload named {only}")
TIMES = {"ns", "us", "ms", "s", "1/s"}
failures = []


def run(workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", seed,
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        failures.append(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr[-2000:]}")
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        failures.append(f"{workload} trace={trace}: correct={result['correct']} failed={result['failed']}")
    return result["metrics"]


for workload in workloads:
    for trace, defs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        first, second = run(workload, trace), run(workload, trace)
        if first is None or second is None:
            continue
        for d in defs:
            name = d["name"]
            if name not in first or name not in second:
                failures.append(f"{workload}: {name} missing from a result")
                continue
            a, b = first[name]["value"], second[name]["value"]
            if trace == 0:
                bound = d["bound"] * (2 if name == "setup_s" else 1)
                base = min(abs(a), abs(b))
                rel = abs(a - b) / base if base > 0 else float("inf")
                verdict = "ok" if rel <= bound else "DIFFERS"
                print(f"{workload:17s} {name:14s} {a:14.4f} {b:14.4f} {d['unit']:5s} "
                      f"{100 * rel:6.2f} % of {100 * bound:.0f} %  {verdict}")
                if rel > bound:
                    failures.append(f"{workload}: {name} {a} vs {b} differs by more than {bound}")
            elif d["unit"] not in TIMES and not name.startswith("bench."):
                if a != b:
                    failures.append(f"{workload}: deterministic {name} {a} vs {b}")
        if trace == 1:
            exact = sum(1 for d in defs if d["unit"] not in TIMES and not d["name"].startswith("bench."))
            print(f"{workload:17s} {exact} deterministic per-layer metrics compared exactly")

for f in failures:
    print("FAIL", f, file=sys.stderr)
print(f"seed {seed}: {'FAILED' if failures else 'ok'} ({len(workloads)} workloads)")
sys.exit(1 if failures else 0)
EOF
