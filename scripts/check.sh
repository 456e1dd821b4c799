#!/usr/bin/env bash
# Repo hygiene gate: formatting, build, tests, and a grep lint that pins the
# number of `unwrap()` calls in the engine/recs/core crates to a recorded
# baseline — new code in the print path must handle errors (or use
# `expect` with a message), never add bare unwraps. Lower the baseline when
# you remove some.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo build --workspace"
cargo build --workspace --quiet

echo "== cargo check --workspace --all-targets"
# Benches and examples are compiled by neither the build above nor the test
# run below; a renamed API must not rot there out of sight.
cargo check --workspace --all-targets --quiet

echo "== cargo test --workspace"
cargo test --workspace --quiet

echo "== metric catalogue drift (trace::names vs scripts/metric_catalogue.txt)"
# Every metric name constant in lux_engine::trace::names must be listed in
# the committed catalogue (and vice versa) — a new metric cannot ship
# without updating the catalogue, which is what DESIGN.md §12 and the CI
# scrape check (scripts/scrape_check.sh) key off. Regenerate with:
#   awk '/pub mod names/,/^}/' crates/engine/src/trace.rs \
#     | grep -o '= "lux\.[a-z0-9._]*"' | sed 's/= "//; s/"//' | sort -u
current=$(awk '/pub mod names/,/^}/' crates/engine/src/trace.rs \
    | grep -o '= "lux\.[a-z0-9._]*"' | sed 's/= "//; s/"//' | sort -u)
if ! diff -u scripts/metric_catalogue.txt <(printf '%s\n' "$current"); then
    echo "error: metric catalogue drift — update scripts/metric_catalogue.txt (and DESIGN.md §12) to match trace::names"
    exit 1
fi
echo "ok: $(wc -l < scripts/metric_catalogue.txt | tr -d ' ') catalogued metric names in sync"

echo "== failpoint catalogue drift (failpoint::names vs scripts/failpoint_catalogue.txt)"
# Same contract as the metric catalogue: every failpoint site constant in
# lux_engine::failpoint::names must be listed in the committed catalogue
# (and vice versa) — a new injection site cannot ship without the chaos /
# torture suites and DESIGN.md §10 knowing about it. Regenerate with:
#   awk '/pub mod names/,/^}/' crates/engine/src/failpoint.rs \
#     | grep -o '= "[a-z0-9._]*"' | sed 's/= "//; s/"//' | sort -u
current=$(awk '/pub mod names/,/^}/' crates/engine/src/failpoint.rs \
    | grep -o '= "[a-z0-9._]*"' | sed 's/= "//; s/"//' | sort -u)
if ! diff -u scripts/failpoint_catalogue.txt <(printf '%s\n' "$current"); then
    echo "error: failpoint catalogue drift — update scripts/failpoint_catalogue.txt (and DESIGN.md) to match failpoint::names"
    exit 1
fi
echo "ok: $(wc -l < scripts/failpoint_catalogue.txt | tr -d ' ') catalogued failpoint sites in sync"

echo "== unwrap() lint (crates/{engine,recs,core}/src)"
BASELINE=141
count=$(grep -rho 'unwrap()' crates/engine/src crates/recs/src crates/core/src | wc -l | tr -d ' ')
if [ "$count" -gt "$BASELINE" ]; then
    echo "error: $count unwrap() calls (baseline $BASELINE) — new unwrap() in the print path is denied"
    exit 1
fi
if [ "$count" -lt "$BASELINE" ]; then
    echo "note: $count unwrap() calls, below baseline $BASELINE — consider lowering BASELINE in scripts/check.sh"
fi
echo "ok: $count unwrap() calls (baseline $BASELINE)"

echo "== clock/rng drift lint (crates/*/src outside clock.rs, rng.rs, bench)"
# The deterministic-simulation contract (DESIGN.md §15): product code reads
# time through lux_engine::clock and draws randomness through
# lux_engine::rng, so the whole stack is replayable under a world seed.
# A direct Instant::now()/SystemTime::now() (or an ambient-entropy RNG)
# anywhere else silently escapes the virtual clock. Benches are exempt —
# they measure wall time by definition. If a new call site is genuinely
# outside the simulated world, route it through clock.rs/rng.rs anyway
# and gate it there.
drift=$(grep -rn 'Instant::now()\|SystemTime::now()\|thread_rng\|from_entropy' crates/*/src \
    | grep -v '^crates/bench/src\|/clock\.rs:\|/rng\.rs:' || true)
if [ -n "$drift" ]; then
    echo "$drift"
    echo "error: direct time/ambient-RNG call outside lux_engine::{clock,rng} — use clock::now()/clock::sleep()/rng::derive() (DESIGN.md §15)"
    exit 1
fi
echo "ok: no direct time or ambient-RNG calls outside the clock/rng modules"

echo "all checks passed"
