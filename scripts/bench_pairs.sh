#!/bin/sh
# Host-clock A/B of the working tree against a parent revision, by the
# house method (ROADMAP rule iii): alternating parent/change pairs of the
# frozen benchmark, medians, and how many pairs the change won.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [seed...]
#
# Seeds default to 1 2 3 4 5. Every run is `--seconds 14 --trace 0`. Odd
# seeds run the parent first, even seeds the change first. BENCH_WORK names
# the work directory (default: a fresh `mktemp -d`); it holds the exported
# parent tree, both cargo target dirs and every run's result line as
# <side>-<seed>.json.
#
# The parent tree comes from `git archive` (no network, no worktree); both
# `neat-benchmark` binaries are built once, offline, each into its own
# target dir. Nothing under benchmark/ is written: the builds are --locked
# and the runs write their traces into the work directory.
#
# Virtual time must not move in a host-time A/B (ROADMAP rule i): the
# `model.*` values each run prints on its `detail` line are compared pair
# by pair, and the script exits 1 naming the first key and seed that
# differ. The lane workloads (`stack_*`) have no engine and report none.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-rev> <workload> [seed...]" >&2
    exit 2
fi
rev=$1
workload=$2
shift 2
seeds=${*:-1 2 3 4 5}

repo=$(cd "$(dirname "$0")/.." && pwd)
work=${BENCH_WORK:-$(mktemp -d)}
rm -rf "$work/parent"
mkdir -p "$work/parent" "$work/out"
echo "work directory: $work" >&2

# -m: extraction time as mtime, so a reused target dir never mistakes an
# older revision's sources for already built.
git -C "$repo" archive "$rev" | tar -x -m -C "$work/parent"
for side in parent change; do
    src=$repo
    [ "$side" = parent ] && src=$work/parent
    CARGO_TARGET_DIR=$work/$side-target cargo build --release --offline --locked \
        --manifest-path "$src/benchmark/Cargo.toml" >&2
done

run() { # side seed
    "$work/$1-target/release/neat-benchmark" --workload "$workload" --seed "$2" \
        --seconds 14 --trace 0 --out "$work/out" >"$work/$1-$2.log"
    tail -n 1 "$work/$1-$2.log" >"$work/$1-$2.json"
    python3 - "$1" "$2" "$work/$1-$2.json" <<'EOF'
import json, sys
side, seed, path = sys.argv[1:]
r = json.load(open(path))
cells = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
print(f"seed {seed:>3} {side:<6} correct={r['correct']} attempted={r['attempted']} "
      f"failed={r['failed']} {cells}", flush=True)
EOF
}

for s in $seeds; do
    if [ $((s % 2)) -eq 1 ]; then
        run parent "$s"
        run change "$s"
    else
        run change "$s"
        run parent "$s"
    fi
done

python3 - "$work" "$seeds" <<'EOF'
import json, statistics, sys
work, seeds = sys.argv[1], sys.argv[2].split()
load = lambda side, s: json.load(open(f"{work}/{side}-{s}.json"))
runs = {side: [load(side, s) for s in seeds] for side in ("parent", "change")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"\n{len(seeds)} pairs; parent -> change medians, parent IQR, pairs where the change is lower")
print(f"{'metric':<40} {'parent':>12} {'change':>12} {'delta':>8} {'IQR':>10}  lower")
for name in runs["parent"][0]["metrics"]:
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    mp, mc = statistics.median(p), statistics.median(c)
    lo, hi = quartiles(p)
    delta = f"{(mc - mp) / mp * 100:+.1f}%" if mp else "-"
    lower = sum(b < a for a, b in zip(p, c))
    print(f"{name:<40} {mp:>12.6g} {mc:>12.6g} {delta:>8} {hi - lo:>10.4g}  {lower} of {len(p)}")
bad = [(side, r) for side in runs for r in runs[side] if not r["correct"] or r["failed"]]
print("every run correct, 0 failed" if not bad else f"{len(bad)} runs incorrect or failing")

def model(side, s):
    for line in open(f"{work}/{side}-{s}.log"):
        if line.startswith("detail "):
            extra = json.loads(line[len("detail "):])["extra"]
            return {k: v["value"] for k, v in extra.items() if k.startswith("model.")}
    sys.exit(f"seed {s} {side}: no detail line")

keys = 0
for s in seeds:
    p, c = model("parent", s), model("change", s)
    keys += len(p)
    for k in sorted(p.keys() | c.keys()):
        if p.get(k) != c.get(k):
            sys.exit(f"model.* differ: {k} at seed {s}: parent {p.get(k)} change {c.get(k)}")
print("model.* equal in every pair" if keys else "no model.* values (a lane workload)")
EOF
