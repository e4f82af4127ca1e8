#!/bin/sh
# Behaviour identity of the working tree against a parent revision: both
# trees' `run_all --quick` suites must write byte-identical results files,
# and the working tree's `check_bench` must pass.
#
#   scripts/same_results.sh <parent-rev> [--keys]
#
# --keys: for every results/BENCH_*.json that differs, also print each JSON
# path whose value differs, one line each as `BENCH_x.json: path: old -> new`
# (a path on one side only shows `(absent)` on the other): the old -> new
# list a change that moves the model on purpose quotes.
#
# BENCH_WORK names the work directory (default: a fresh `mktemp -d`), as for
# bench_pairs.sh. It holds the exported parent tree, each side's cargo target
# dir (<side>-target) and each side's run directory (<side>-run: a copy of
# that side's baselines/, the results/ its suite writes, run_all.log).
# Nothing is written under the repository. Give each checkout its own work
# directory: cargo judges change-target fresh by the mtimes of the sources
# it was built from, so a second checkout's edits there go unseen.
#
# The parent tree comes from `git archive` (no network, no worktree); both
# sides build offline and --locked. Every file either side wrote under
# results/ is compared with `cmp`; those that differ, or exist on one side
# only, are named and the script exits 1.
set -eu

keys=0
if [ $# -eq 2 ] && [ "$2" = --keys ]; then
    keys=1
elif [ $# -ne 1 ]; then
    echo "usage: $0 <parent-rev> [--keys]" >&2
    exit 2
fi
rev=$1

repo=$(cd "$(dirname "$0")/.." && pwd)
work=${BENCH_WORK:-$(mktemp -d)}
rm -rf "$work/parent" "$work/parent-run" "$work/change-run"
mkdir -p "$work/parent"
echo "work directory: $work" >&2

# -m: extraction time as mtime, so a reused target dir never mistakes an
# older revision's sources for already built.
git -C "$repo" archive "$rev" | tar -x -m -C "$work/parent"
for side in parent change; do
    src=$repo
    [ "$side" = parent ] && src=$work/parent
    CARGO_TARGET_DIR=$work/$side-target cargo build --release --offline --locked \
        --manifest-path "$src/Cargo.toml" -p neat-bench --bins >&2
    run=$work/$side-run
    mkdir -p "$run"
    cp -R "$src/baselines" "$run/"
    echo "==> $side: run_all --quick" >&2
    if ! (cd "$run" && "$work/$side-target/release/run_all" --quick >run_all.log 2>&1); then
        echo "$side: run_all failed; see $run/run_all.log" >&2
        exit 1
    fi
done

# Print every leaf path of results/$1 whose value differs between the sides.
json_keys() {
    python3 - "$1" "$work/parent-run/results/$1" "$work/change-run/results/$1" <<'PY'
import json, os, sys
name, old_path, new_path = sys.argv[1:]

def leaves(path):
    out = {}
    def walk(v, at):
        if isinstance(v, dict) and v:
            for k, x in v.items():
                walk(x, f"{at}.{k}" if at else k)
        elif isinstance(v, list) and v:
            for i, x in enumerate(v):
                walk(x, f"{at}[{i}]")
        else:
            out[at] = json.dumps(v)
    if os.path.exists(path):
        walk(json.load(open(path)), "")
    return out

old, new = leaves(old_path), leaves(new_path)
for k in sorted(old.keys() | new.keys()):
    a, b = old.get(k, "(absent)"), new.get(k, "(absent)")
    if a != b:
        print(f"{name}: {k}: {a} -> {b}")
PY
}

differ=0
total=0
for f in $( (ls "$work/parent-run/results"; ls "$work/change-run/results") | sort -u); do
    total=$((total + 1))
    if ! cmp -s "$work/parent-run/results/$f" "$work/change-run/results/$f"; then
        echo "DIFFERS: results/$f" >&2
        differ=1
        case "$keys:$f" in
        1:BENCH_*.json) json_keys "$f" ;;
        esac
    fi
done

echo "==> change: check_bench" >&2
(cd "$work/change-run" && "$work/change-target/release/check_bench")

if [ "$differ" = 1 ]; then
    echo "SAME-RESULTS FAILURE: the results files named above differ from $rev's" >&2
    exit 1
fi
echo "all $total results files identical to $rev's"
