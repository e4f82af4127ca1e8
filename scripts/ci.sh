#!/bin/sh
# Offline CI gate for the NEaT reproduction workspace.
#
# The workspace is hermetic by construction: every dependency is an
# in-tree path dependency (enforced by tests/hermetic.rs), so this
# script must pass on a bare checkout with no network access and no
# cargo registry cache. Any step that would touch the network is a bug.
#
# Usage:
#   scripts/ci.sh                 # every tier (the full gate)
#   scripts/ci.sh --tier1         # size + one-builder + no-source-text +
#                                 # no-default-hasher guards, build, test,
#                                 # pinned-shapes guard, fmt, clippy
#   scripts/ci.sh --tier2         # quick benches + regression gates
#                                 # (expects a tier-1 build already present)
#
# Every gate step runs through `run`, which checks the exit status
# explicitly. `set -e` alone is not enough: POSIX disables it inside any
# conditional context, so `sh scripts/ci.sh --tier1 && deploy` or a
# caller's `if scripts/ci.sh; then` would otherwise let a failing clippy
# or test step fall through to the next command instead of failing the
# gate.

set -eu

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
    status=$?
    if [ "$status" -ne 0 ]; then
        echo "FAILED (exit $status): $*" >&2
        exit "$status"
    fi
}

TIER1=1
TIER2=1
case "${1:-}" in
    --tier1) TIER2=0 ;;
    --tier2) TIER1=0 ;;
    "") ;;
    *) echo "unknown argument: $1 (want --tier1 or --tier2)" >&2; exit 2 ;;
esac

# Module-size guard: no deployed source file may grow past 800 lines —
# the socket-monolith decomposition stays decomposed. Out-of-line test
# modules (`*_tests.rs`, `proptests.rs`) are exempt: they are not
# deployed code.
module_size_guard() {
    oversized=$(find crates -path '*/src/*' -name '*.rs' \
        ! -name '*_tests.rs' ! -name 'proptests.rs' \
        -exec awk 'END { if (NR > 800) print FILENAME ": " NR " lines" }' {} \;)
    if [ -n "$oversized" ]; then
        echo "MODULE SIZE FAILURE: source files over 800 lines (split them" >&2
        echo "into owned-state components; move tests to *_tests.rs):" >&2
        echo "$oversized" >&2
        exit 1
    fi
}

# Deployed line count (ROADMAP item 5's measure; reported, gates nothing):
# non-blank lines of every `crates/*/src` file less the test-only files
# (`*_tests.rs`, `proptests.rs`, `tests_components.rs`), each file cut
# where the text `#[cfg(test)]` first occurs on a line — in a doc comment
# too, which is where `fault.rs` first names it. (Cutting at the first
# attribute line instead counts that file's doc-to-attribute span too.)
deployed_line_count() {
    find crates -path '*/src/*' -name '*.rs' ! -name '*_tests.rs' \
        ! -name 'proptests.rs' ! -name 'tests_components.rs' -exec awk '
        FNR == 1 { cut = 0 }
        index($0, "#[cfg(test)]") { cut = 1 }
        !cut && NF { n++ }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s }'
}

# One-builder guard: stack components are constructed in replica.rs only
# (tests_components.rs builds them bare to test them, and is exempt).
one_builder_guard() {
    builders=$(grep -lE '(SingleStackProc|TcpProc|IpProc|PfProc|UdpProc)::new\(' \
        crates/core/src/*.rs | grep -v tests_components.rs || true)
    if [ "$builders" != "crates/core/src/replica.rs" ]; then
        echo "ONE-BUILDER FAILURE: replicas are built in one place; boot," >&2
        echo "scale-up and recovery call replica::spawn_replica/component." >&2
        echo "Stack components are constructed in:" >&2
        echo "$builders" >&2
        exit 1
    fi
}

# No-source-text guard (DESIGN.md determinism rule 4): no result may
# depend on how the sources are formatted, so no deployed code embeds a
# source file. Only the text before a file's first `#[cfg(test)]` is
# checked — fault.rs's test module re-counts the sources on purpose.
no_source_text_guard() {
    embedders=$(find crates -path '*/src/*' -name '*.rs' -exec awk '
        /^[ \t]*#\[cfg\(test\)\]/ { exit }
        { text = text " " $0 }
        END { if (text ~ /include_str!\([ \t]*"[^"]*\.rs"/) print FILENAME }' {} \;)
    if [ -n "$embedders" ]; then
        echo "NO-SOURCE-TEXT FAILURE: deployed code include_str!s a .rs file, so a" >&2
        echo "result could move with formatting. Model parameters are pinned data" >&2
        echo "(CodeSizes::PINNED); measure sources only under #[cfg(test)]:" >&2
        echo "$embedders" >&2
        exit 1
    fi
}

# No-default-hasher guard (ROADMAP item A(b)): `RandomState` is a SipHash
# per probe and an iteration order that differs from process to process, so
# deployed code (the text before a file's first `#[cfg(test)]`) names no
# `collections::HashMap`/`HashSet`, alone or in a `collections::{..}` group;
# maps are `neat_util::Fx*`, `BTreeMap` or a `Vec`. The scope is every
# crate's sources, less test-only files and `util/src/hash.rs`, which
# defines the aliases.
HASHER_SCOPE="crates"
no_default_hasher_guard() {
    users=$(find "$HASHER_SCOPE" -path '*/src/*' -name '*.rs' ! -name '*_tests.rs' \
        ! -name 'proptests.rs' ! -path '*/util/src/hash.rs' \
        -exec awk '
        /^[ \t]*#\[cfg\(test\)\]/ { exit }
        { text = text " " $0 }
        END { if (text ~ /collections::([{][^}]*)?Hash(Map|Set)/) print FILENAME }' {} \;)
    if [ -n "$users" ]; then
        echo "NO-DEFAULT-HASHER FAILURE: deployed code uses std's HashMap/HashSet with" >&2
        echo "the default hasher. Use neat_util::FxHashMap/FxHashSet for a map that is" >&2
        echo "only probed; a BTreeMap, a Vec, or a sort at the iteration site for one" >&2
        echo "whose order is observed:" >&2
        echo "$users" >&2
        exit 1
    fi
}

# Pinned-shapes guard (ROADMAP rule i): the frozen benchmark lane calls
# the product through fixed signatures and builds some of its types field
# by field, so it must keep compiling against this tree. Builds into
# benchmark/target (git-ignored); reads benchmark/, writes nothing tracked.
pinned_shapes_guard() {
    echo "==> cargo check --offline --all-targets --manifest-path benchmark/Cargo.toml"
    if ! cargo check --offline --all-targets --manifest-path benchmark/Cargo.toml; then
        echo "PINNED-SHAPES FAILURE (ROADMAP rule i): benchmark/ is frozen and no" >&2
        echo "longer compiles against the product. Restore the signature or type" >&2
        echo "it names; changing one is a [benchmark]-class PR of its own." >&2
        exit 1
    fi
}

if [ "$TIER1" = 1 ]; then
    echo "==> [tier1] module-size guard (deployed sources <= 800 lines)"
    module_size_guard
    echo "==> [tier1] deployed non-test lines under crates/*/src: $(deployed_line_count)"
    echo "==> [tier1] one-builder guard (components constructed in replica.rs only)"
    one_builder_guard
    echo "==> [tier1] no-source-text guard (deployed code embeds no .rs file)"
    no_source_text_guard
    echo "==> [tier1] no-default-hasher guard (deployed code names no std HashMap/HashSet)"
    no_default_hasher_guard

    run cargo build --release --offline

    run cargo test -q --offline

    echo "==> [tier1] pinned-shapes guard (frozen benchmark/ compiles against the product)"
    pinned_shapes_guard

    # Formatting is checked only when rustfmt is installed; minimal
    # toolchains without the rustfmt component still get a green gate.
    if cargo fmt --version >/dev/null 2>&1; then
        run cargo fmt --all -- --check
    else
        echo "==> [tier1] cargo fmt not available; skipping format check"
    fi

    # Lints are a hard gate when clippy is installed; toolchains without
    # the component skip it rather than failing spuriously.
    if cargo clippy --version >/dev/null 2>&1; then
        run cargo clippy --all-targets --offline -- -D warnings
    else
        echo "==> [tier1] cargo clippy not available; skipping lint gate"
    fi

    echo "==> tier1 passed"
fi

if [ "$TIER2" = 1 ]; then
    # Tier 2 needs the release binaries; build them if a tier-1 build
    # from this or a cached run isn't already present.
    if [ ! -x target/release/run_all ]; then
        run cargo build --release --offline
    fi

    # Performance-regression gate: run the deterministic quick bench
    # suite (which includes the 10k-client conn_scale smoke) and compare
    # headline metrics against the committed baselines.
    run ./target/release/run_all --quick

    run ./target/release/check_bench

    # Determinism gate: the quick conn_scale profile must be bit-stable —
    # same seed, same JSON, byte for byte. Catches nondeterminism leaking
    # into results (wall clock, map iteration order, uninitialised state).
    echo "==> [tier2] conn_scale + failover determinism gate (two runs, byte-identical)"
    for b in conn_scale failover; do
        cp "results/BENCH_$b.json" "results/.${b}_run1.json"
        run env NEAT_BENCH_QUICK=1 "./target/release/$b" --quick
        if ! cmp -s "results/.${b}_run1.json" "results/BENCH_$b.json"; then
            echo "DETERMINISM FAILURE: two fixed-seed $b runs differ:" >&2
            diff "results/.${b}_run1.json" "results/BENCH_$b.json" >&2 || true
            exit 1
        fi
        rm -f "results/.${b}_run1.json"
    done
    echo "==> determinism gate passed"

    echo "==> tier2 passed"
fi

echo "==> CI gate passed"
