#!/usr/bin/env bash
# The repo's grep lints, in one place: `scripts/check.sh` and the CI Hygiene
# job both run exactly this file. No build needed.
set -euo pipefail
cd "$(dirname "$0")/.."

# Test code is what follows a file's `#[cfg(test)]` + `mod` pair; a lone
# `#[cfg(test)]` item above it (a test-only thread-local, say) is not.
# TEST_LINES prints a file list's test lines, PROD_LINES the rest.
MARK_TESTS='FNR == 1 { t = 0; armed = 0 } armed && /^(pub(\([a-z]+\))? )?mod / { t = 1 } { armed = /^#\[cfg\(test\)\]/ }'
TEST_LINES="$MARK_TESTS t"
PROD_LINES="$MARK_TESTS !t"

echo "== unwrap() lint (crates/{engine,recs,core}/src)"
# New code in the print path must handle errors (or use `expect` with a
# message), never add bare unwraps. Lower the baseline when you remove some.
BASELINE=135
count=$(grep -rho 'unwrap()' crates/engine/src crates/recs/src crates/core/src | wc -l | tr -d ' ')
if [ "$count" -gt "$BASELINE" ]; then
    echo "error: $count unwrap() calls (baseline $BASELINE) — new unwrap() in the print path is denied"
    exit 1
fi
if [ "$count" -lt "$BASELINE" ]; then
    echo "note: $count unwrap() calls, below baseline $BASELINE — consider lowering BASELINE in scripts/lint.sh"
fi
echo "ok: $count unwrap() calls (baseline $BASELINE)"

echo "== f64_at( lint (row-kernel crates, non-test lines)"
# A loop over a column's rows goes through the typed visitors of
# lux_dataframe::scan (DESIGN.md §16); `f64_at` — an enum match, a validity
# test and an Option per call — is for genuine random access only. What is
# left is its definition and one read across the columns of a single row.
F64_AT_BASELINE=2
count=$(find crates/dataframe/src/ops crates/dataframe/src/column.rs crates/dataframe/src/series.rs \
    crates/recs/src crates/vis/src/data.rs -name '*.rs' \
    -exec awk "$PROD_LINES" {} + | grep -o 'f64_at(' | wc -l | tr -d ' ')
if [ "$count" -gt "$F64_AT_BASELINE" ]; then
    echo "error: $count f64_at( calls (baseline $F64_AT_BASELINE) — a row loop must use Column::for_each_f64 / scan::for_each_f64_pair"
    exit 1
fi
if [ "$count" -lt "$F64_AT_BASELINE" ]; then
    echo "note: $count f64_at( calls, below baseline $F64_AT_BASELINE — consider lowering F64_AT_BASELINE in scripts/lint.sh"
fi
echo "ok: $count f64_at( calls (baseline $F64_AT_BASELINE)"

echo "== options-literal lint (ProcessOptions / CompileOptions outside their crates)"
# A LuxConfig becomes options in two places, `impl From<&LuxConfig>` in
# lux-vis and in lux-intent (DESIGN.md §6). A struct literal anywhere else
# in product code is a second derivation that will drift from them.
literals=$(find crates/*/src -name '*.rs' ! -path 'crates/vis/src/*' ! -path 'crates/intent/src/*' \
    -exec awk "$MARK_TESTS"' !t && /(ProcessOptions|CompileOptions) \{/ && !/->.*Options \{/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$literals" ]; then
    echo "$literals"
    echo "error: ProcessOptions/CompileOptions literal outside its defining crate — derive it with From<&LuxConfig>"
    exit 1
fi
echo "ok: options are derived from a LuxConfig only in lux-vis and lux-intent"

echo "== one-record lint (pass observation outside LuxDataFrame::finish_print)"
# A finished print is observed in one place (DESIGN.md §7): it summarizes its
# trace once and that one PassSummary feeds the JSONL log, the flight
# recorder and the tenant SLO series. A second call site is a second copy.
records=$(find crates/*/src -name '*.rs' ! -path 'crates/core/src/luxframe.rs' \
    -exec awk "$MARK_TESTS"' !t && /PassSummary::from_trace\(|\.to_compact_json\(|FlightRecorder::global\(\)\.record\(|\.(incr|observe)_tenant\(|\.tenant_counter_handle\(/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$records" ]; then
    echo "$records"
    echo "error: a finished pass is summarized, logged, flight-recorded and charged to its tenant only in crates/core/src/luxframe.rs"
    exit 1
fi
echo "ok: finished passes are observed only in crates/core/src/luxframe.rs"

echo "== clock/rng drift lint (crates/*/src outside clock.rs, rng.rs, bench)"
# Product code reads time through lux_engine::clock and draws randomness
# through lux_engine::rng, so the whole stack is replayable under a world
# seed (DESIGN.md §15). A direct Instant::now()/SystemTime::now() (or an
# ambient-entropy RNG) anywhere else silently escapes the virtual clock.
# The experiment binaries are exempt — they measure wall time by definition.
drift=$(grep -rn 'Instant::now()\|SystemTime::now()\|thread_rng\|from_entropy' crates/*/src \
    | grep -v '^crates/bench/src\|/clock\.rs:\|/rng\.rs:' || true)
if [ -n "$drift" ]; then
    echo "$drift"
    echo "error: direct time/ambient-RNG call outside lux_engine::{clock,rng} — use clock::now()/clock::sleep()/rng::derive()"
    exit 1
fi
echo "ok: no direct time or ambient-RNG calls outside the clock/rng modules"

echo "== knobs lint (LUX_* names outside crates/engine/src/knobs.rs, README knob table)"
# The product's LUX_* variables are parsed once, by lux_engine::knobs
# (DESIGN.md §2): a quoted name anywhere else under crates/*/src is a second
# read. The bench binaries' and the sim binary's own tool knobs are exempt.
# Every variable knobs.rs names has a row in README.md's knob table.
stray=$(grep -rn '"LUX_[A-Z0-9_]*"' crates/*/src \
    | grep -v '^crates/engine/src/knobs\.rs:\|^crates/bench/src/\|^crates/sim/src/bin/' || true)
if [ -n "$stray" ]; then
    echo "$stray"
    echo "error: LUX_* variable named outside crates/engine/src/knobs.rs — add a Knobs field and read that"
    exit 1
fi
rowless=0
for var in $(grep -oE '"LUX_[A-Z0-9_]+"' crates/engine/src/knobs.rs | tr -d '"' | sort -u); do
    if ! grep -q "^| \`$var\` |" README.md; then
        echo "no README.md knob-table row: $var"
        rowless=1
    fi
done
if [ "$rowless" -ne 0 ]; then
    echo "error: every variable in crates/engine/src/knobs.rs needs a row in README.md's knob table"
    exit 1
fi
echo "ok: LUX_* variables are read only in knobs.rs, and each has a README row"

echo "== observed-name lint (metrics, failpoints, LUX_* variables)"
# One rule for the whole instrument surface: a metric in trace::names, a
# failpoint site in failpoint::names, or a LUX_* variable read under
# crates/*/src stays only while something observes it — a test, a
# #[cfg(test)] module, a script, a CI job, or the benchmark harness names
# it. Anything else is a write site nobody reads or a knob nobody turns:
# pin it in the test that provokes it, or delete it.
observers=$(mktemp)
trap 'rm -f "$observers"' EXIT
{
    find tests crates/*/tests benchmark/src .github -type f -exec cat {} +
    find scripts -name '*.sh' ! -name lint.sh -exec cat {} +
    find crates/*/src -name '*.rs' -exec awk "$TEST_LINES" {} +
} >"$observers"

# `pub const IDENT: &str = "value";` pairs of a file's `pub mod names`.
names_of() {
    awk '/^pub mod names/,/^}/' "$1" | sed -n 's/.*pub const \([A-Z0-9_]*\): &str = "\([^"]*\)".*/\1 \2/p'
}

unobserved=0
metrics=0
while read -r ident name; do
    metrics=$((metrics + 1))
    # By constant, by dotted name, or by Prometheus name (a prefix there:
    # histograms are exposed as <name>_seconds{,_count,_sum}).
    if ! grep -qwF -e "$ident" -e "$name" "$observers" && ! grep -qF "${name//./_}" "$observers"; then
        echo "unobserved metric: $ident ($name)"
        unobserved=1
    fi
done < <(names_of crates/engine/src/trace.rs)

failpoints=0
while read -r ident name; do
    failpoints=$((failpoints + 1))
    if ! grep -qwF -e "$ident" -e "$name" "$observers"; then
        echo "unobserved failpoint: $ident ($name)"
        unobserved=1
    fi
done < <(names_of crates/engine/src/failpoint.rs)

# Where the process listens and where it keeps its files are configurable
# whether or not a test happens to move them.
deployment=' LUX_SERVER_ADDR LUX_SERVER_DATA_DIR LUX_FLIGHT_SPOOL '
knobs=0
for var in $(grep -rhoE '"LUX_[A-Z0-9_]+"' crates/*/src | tr -d '"' | sort -u); do
    knobs=$((knobs + 1))
    case "$deployment" in *" $var "*) continue ;; esac
    if ! grep -qw "$var" "$observers"; then
        echo "unobserved variable: $var"
        unobserved=1
    fi
done

if [ "$unobserved" -ne 0 ]; then
    echo "error: every metric, failpoint and LUX_* variable needs an observer under tests/, crates/*/tests/, a #[cfg(test)] module, scripts/, .github/ or benchmark/src/"
    exit 1
fi
echo "ok: $metrics metrics, $failpoints failpoints, $knobs LUX_* variables all observed"

echo "all lints passed"
