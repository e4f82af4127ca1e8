#!/bin/sh
# Host-clock A/B of the working tree against a parent revision, by the
# house method (ROADMAP rule iii): alternating parent/change pairs of the
# frozen benchmark, medians, and how many pairs the change won.
#
#   scripts/bench_pairs.sh <parent-rev> <workload>[,<workload>...]|all [seed...]
#
# `all` is every workload BENCHMARK.json declares. Both sides are built
# once; the workloads then run one after another, each with its own pairs
# and its own summary. Seeds default to 1 2 3 4 5. Every run is
# `--seconds 14 --trace 0`. Odd seeds run the parent first, even seeds the
# change first. BENCH_WORK names the work directory (default: a fresh
# `mktemp -d`); it holds the exported parent tree, both cargo target dirs
# and every run's result line as <side>-<workload>-<seed>.json.
#
# Each metric's summary row ends with a verdict by the house rule:
# `lower` or `higher` when the change moves that way in at least 9 pairs in
# 10 and its median moves by more than the parent's IQR, `exact` when each
# side repeats one value in every run (a count), `unresolved` otherwise.
#
# The parent tree comes from `git archive` (no network, no worktree); both
# `neat-benchmark` binaries are built once, offline, each into its own
# target dir. Nothing under benchmark/ is written: the builds are --locked
# and the runs write their traces into the work directory.
#
# Virtual time must not move in a host-time A/B (ROADMAP rule i): the
# `model.*` values each run prints on its `detail` line are compared pair
# by pair; a workload whose values differ prints, for the first seed where
# they differ, every differing key as `old -> new` (a key on one side only
# as `(absent)`), the other workloads still run, and the script exits 1.
# The lane workloads (`stack_*`) have no engine and report none.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-rev> <workload>[,<workload>...]|all [seed...]" >&2
    exit 2
fi
rev=$1
workloads=$2
shift 2
seeds=${*:-1 2 3 4 5}

repo=$(cd "$(dirname "$0")/.." && pwd)
if [ "$workloads" = all ]; then
    workloads=$(python3 -c 'import json, sys
print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
        "$repo/BENCHMARK.json")
fi
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

run() { # side workload seed
    "$work/$1-target/release/neat-benchmark" --workload "$2" --seed "$3" \
        --seconds 14 --trace 0 --out "$work/out" >"$work/$1-$2-$3.log"
    tail -n 1 "$work/$1-$2-$3.log" >"$work/$1-$2-$3.json"
    python3 - "$1" "$3" "$work/$1-$2-$3.json" <<'EOF'
import json, sys
side, seed, path = sys.argv[1:]
r = json.load(open(path))
cells = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
print(f"seed {seed:>3} {side:<6} correct={r['correct']} attempted={r['attempted']} "
      f"failed={r['failed']} {cells}", flush=True)
EOF
}

summary() { # workload
    python3 - "$work" "$1" "$seeds" <<'EOF'
import json, statistics, sys
work, workload, seeds = sys.argv[1], sys.argv[2], sys.argv[3].split()
load = lambda side, s: json.load(open(f"{work}/{side}-{workload}-{s}.json"))
runs = {side: [load(side, s) for s in seeds] for side in ("parent", "change")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def verdict(p, c, mp, mc, iqr):
    # The house rule: a direction wins at least 9 pairs in 10 and moves the
    # median by more than the parent's IQR; a count that repeats one value
    # on each side is exact; anything else is unresolved.
    for word, won in (("lower", sum(b < a for a, b in zip(p, c))),
                      ("higher", sum(b > a for a, b in zip(p, c)))):
        if won * 10 >= 9 * len(p) and abs(mc - mp) > iqr:
            return word
    return "exact" if len(set(p)) == 1 and len(set(c)) == 1 else "unresolved"

print(f"\n{workload}: {len(seeds)} pairs; parent -> change medians, parent IQR, "
      "pairs where the change is lower, verdict")
print(f"{'metric':<40} {'parent':>12} {'change':>12} {'delta':>8} {'IQR':>10}  lower    verdict")
for name in runs["parent"][0]["metrics"]:
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    mp, mc = statistics.median(p), statistics.median(c)
    lo, hi = quartiles(p)
    delta = f"{(mc - mp) / mp * 100:+.1f}%" if mp else "-"
    lower = sum(b < a for a, b in zip(p, c))
    won = f"{lower} of {len(p)}"
    print(f"{name:<40} {mp:>12.6g} {mc:>12.6g} {delta:>8} {hi - lo:>10.4g}  {won:<8} "
          f"{verdict(p, c, mp, mc, hi - lo)}")
bad = [(side, r) for side in runs for r in runs[side] if not r["correct"] or r["failed"]]
print("every run correct, 0 failed" if not bad else f"{len(bad)} runs incorrect or failing")

def model(side, s):
    for line in open(f"{work}/{side}-{workload}-{s}.log"):
        if line.startswith("detail "):
            extra = json.loads(line[len("detail "):])["extra"]
            return {k: v["value"] for k, v in extra.items() if k.startswith("model.")}
    sys.exit(f"seed {s} {side}: no detail line")

keys = 0
for s in seeds:
    p, c = model("parent", s), model("change", s)
    keys += len(p)
    moved = [k for k in sorted(p.keys() | c.keys()) if p.get(k) != c.get(k)]
    if moved:
        print(f"model.* differ at seed {s}, parent -> change:")
        for k in moved:
            print(f"  {k}: {p.get(k, '(absent)')} -> {c.get(k, '(absent)')}")
        sys.exit(f"model.* differ: {len(moved)} keys at seed {s}")
print("model.* equal in every pair" if keys else "no model.* values (a lane workload)")
EOF
}

status=0
for w in $(echo "$workloads" | tr , ' '); do
    echo "== $w" >&2
    for s in $seeds; do
        if [ $((s % 2)) -eq 1 ]; then
            run parent "$w" "$s"
            run change "$w" "$s"
        else
            run change "$w" "$s"
            run parent "$w" "$s"
        fi
    done
    summary "$w" || status=1
done
exit $status
