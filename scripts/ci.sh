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
#   scripts/ci.sh --tier1         # size + panic-site + settings + tcp-owner +
#                                 # one-builder +
#                                 # no-source-text + no-default-hasher
#                                 # guards, build, test,
#                                 # pinned-shapes guard, fmt, clippy
#   scripts/ci.sh --tier2         # quick benches + regression gates +
#                                 # the frozen benchmark's own tests
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

# Run the awk program "$1" over the deployed sources: every `crates/*/src`
# file less the test-only files (`*_tests.rs`, `proptests.rs`,
# `tests_components.rs`), each file cut where the text `#[cfg(test)]`
# first occurs on a line — in a doc comment too, which is where `fault.rs`
# first names it. (Cutting at the first attribute line instead counts that
# file's doc-to-attribute span too.) "$1" sees only the lines before the cut.
deployed_awk() {
    find crates -path '*/src/*' -name '*.rs' ! -name '*_tests.rs' \
        ! -name 'proptests.rs' ! -name 'tests_components.rs' -exec awk '
        FNR == 1 { cut = 0 }
        index($0, "#[cfg(test)]") { cut = 1 }
        cut { next }
        '"$1" {} +
}

# Deployed line count (ROADMAP item 5's measure; reported, gates nothing):
# the non-blank lines of the deployed sources.
deployed_line_count() {
    deployed_awk 'NF { n++ } END { print n + 0 }' | awk '{ s += $1 } END { print s }'
}

# Panic-site guard (ROADMAP item 4(d)): every `unwrap()`, `.expect(`,
# `panic!` and `unreachable!` on a non-comment line of the deployed sources
# is one site, and the count is pinned. A data-path site becomes an error
# or a counted drop; a survivor says in a comment why it cannot fire. The
# pin moves down only, in the change that removes a site.
PANIC_SITES=22
panic_site_guard() {
    sites=$(deployed_awk '
        /^[ \t]*\/\// { next }
        { k = gsub(/unwrap\(\)|\.expect\(|panic!|unreachable!/, "&") }
        { for (i = 0; i < k; i++) print FILENAME ":" FNR }')
    count=$(printf '%s' "$sites" | grep -c . || true)
    if [ "$count" -gt "$PANIC_SITES" ]; then
        echo "PANIC-SITE FAILURE: deployed code has $count unwrap()/.expect(/panic!/" >&2
        echo "unreachable! sites, the pin is $PANIC_SITES: make the new one an error, a" >&2
        echo "counted drop or a let-else. The sites:" >&2
        echo "$sites" >&2
        exit 1
    elif [ "$count" -lt "$PANIC_SITES" ]; then
        echo "PANIC-SITE FAILURE: deployed code has $count sites, fewer than the pin:" >&2
        echo "lower PANIC_SITES in scripts/ci.sh to $count." >&2
        exit 1
    fi
}

# Settings guard (ROADMAP aim 2 and 4(c)): every `pub` field of a deployed
# config struct is a knob a caller may set, and the total is pinned. A
# change that adds a knob moves the pin up and says in CHANGES.md which
# scenario sets it to a second value; one that deletes a knob moves it
# down. The struct set is `SETTINGS_STRUCTS`; the file set and the
# `#[cfg(test)]` cut are `deployed_awk`'s.
SETTINGS=55
SETTINGS_STRUCTS="TcpConfig NicConfig HttperfConfig MonoTuning NeatConfig TestbedSpec MonoTestbedSpec FaultConfig"
settings_guard() {
    knobs=$(deployed_awk '
        BEGIN { n = split("'"$SETTINGS_STRUCTS"'", s, " "); for (i = 1; i <= n; i++) want[s[i]] = 1 }
        FNR == 1 { name = "" }
        /^pub struct [A-Za-z0-9_]+ \{/ { split($0, w, /[ \t{]+/); name = (w[3] in want) ? w[3] : ""; next }
        name != "" && /^}/ { name = ""; next }
        name != "" && /^[ \t]+pub [a-z_0-9]+:/ { sub(/^[ \t]+pub /, ""); sub(/:.*/, ""); print name "::" $0 }')
    count=$(printf '%s' "$knobs" | grep -c . || true)
    if [ "$count" -ne "$SETTINGS" ]; then
        echo "SETTINGS FAILURE: the deployed config structs have $count pub fields, the" >&2
        echo "pin is $SETTINGS. A new knob needs a scenario that sets it to a second value;" >&2
        echo "move SETTINGS in scripts/ci.sh and say why in CHANGES.md. The fields:" >&2
        echo "$knobs" >&2
        exit 1
    fi
}

# TCP owner guard (ROADMAP item 5(a)): each TCB field group has one
# writer. A deployed line of crates/tcp/src (deployed_awk's file set and
# cut) that assigns — `=`, `+=`, `-=`, `|=`, … — to a `.cm.`, `.rel.` or
# `.fc.` field must sit in that group's own file: components/conn_mgmt.rs,
# components/reliability.rs or components/flow_control.rs. The one
# exemption is tcb.rs, the checkpoint decoder, which rebuilds a socket
# field by field. What the guard cannot see is mutation through a `&mut`
# method (`send_buf.ack_to`, `recv_buf.read`, `mem::take`) or a
# destructuring assignment; review covers those.
tcp_owner_guard() {
    writes=$(deployed_awk '
        BEGIN {
            owner["cm"] = "conn_mgmt"; owner["rel"] = "reliability"; owner["fc"] = "flow_control"
            re = "\\.(cm|rel|fc)\\.[A-Za-z_][A-Za-z_0-9.]*[ \t]*([-+*/%&|^]|<<|>>)?=([^=]|$)"
        }
        FILENAME !~ /^crates\/tcp\/src\// || FILENAME ~ /\/tcb\.rs$/ { next }
        /^[ \t]*\/\// { next }
        {
            rest = $0
            while (match(rest, re)) {
                split(substr(rest, RSTART + 1), path, ".")
                if (FILENAME != "crates/tcp/src/components/" owner[path[1]] ".rs") {
                    print FILENAME ":" FNR ":" $0
                    break
                }
                rest = substr(rest, RSTART + RLENGTH)
            }
        }')
    if [ -n "$writes" ]; then
        echo "TCP-OWNER FAILURE: a TCB field is assigned outside its component's file" >&2
        echo "(cm: conn_mgmt.rs, rel: reliability.rs, fc: flow_control.rs). Call a step" >&2
        echo "of the owning component instead:" >&2
        echo "$writes" >&2
        exit 1
    fi
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
    echo "==> [tier1] panic-site guard (deployed unwrap/expect/panic/unreachable sites = $PANIC_SITES)"
    panic_site_guard
    echo "==> [tier1] settings guard (pub fields of the deployed config structs = $SETTINGS)"
    settings_guard
    echo "==> [tier1] tcp owner guard (a TCB field is assigned only in its component's file)"
    tcp_owner_guard
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

    # Determinism gate: the quick conn_scale, failover, fig12 and cc_compare
    # profiles must be bit-stable — same seed, same JSON, byte for byte.
    # Catches nondeterminism leaking into results (wall clock, map iteration
    # order, uninitialised state). fig12 is the one-request-per-connection
    # load, where seats and wheel entries are reused on every request;
    # cc_compare is the one bench that runs each boxed controller (CUBIC,
    # BBR, DCTCP).
    echo "==> [tier2] conn_scale + failover + fig12 + cc_compare determinism gate (two runs, byte-identical)"
    for b in conn_scale failover fig12 cc_compare; do
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

    # The frozen benchmark's own tests (ROADMAP rule i): every workload
    # still completes and verifies against this tree, and the lane's
    # traced time still adds up. Debug profile, one test at a time (the
    # tests time host work); builds into benchmark/target (git-ignored)
    # and writes nothing tracked.
    run cargo test --manifest-path benchmark/Cargo.toml --offline -- --test-threads=1

    echo "==> tier2 passed"
fi

echo "==> CI gate passed"
