#!/usr/bin/env bash
# The repo's grep lints, in one place: `scripts/check.sh` and the CI Hygiene
# job both run exactly this file. No build needed.
set -euo pipefail
cd "$(dirname "$0")/.."

# Test code is a `#[cfg(test)]` + `mod` pair through that module's closing
# `}` in column 0; a lone `#[cfg(test)]` item (a test-only thread-local,
# say) is not, and product code below a test module is product code.
# TEST_LINES prints a file list's test lines, PROD_LINES the rest.
MARK_TESTS='FNR == 1 { t = 0; armed = 0; ended = 0 } ended { t = 0; ended = 0 } armed && /^(pub(\([a-z]+\))? )?mod / { t = 1 } t && /^}/ { ended = 1 } { armed = /^#\[cfg\(test\)\]/ }'
TEST_LINES="$MARK_TESTS t"
PROD_LINES="$MARK_TESTS !t"

echo "== unwrap() lint (crates/{engine,recs,core}/src)"
# New code in the print path must handle errors (or use `expect` with a
# message), never add bare unwraps. Lower the baseline when you remove some.
BASELINE=134
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

echo "== spec-literal lint (VisSpec::new( in crates/recs/src outside Correlation)"
# Actions state their search space as intents and take marks, channels and
# aggregations from lux-intent's Infer step (DESIGN.md §2). A hand-built
# spec in an action is a second copy of those rules; Correlation's pair loop
# in metadata_actions.rs is the one kept exception.
specs=$(find crates/recs/src -name '*.rs' ! -path 'crates/recs/src/metadata_actions.rs' \
    -exec awk "$MARK_TESTS"' !t && /VisSpec::new\(/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$specs" ]; then
    echo "$specs"
    echo "error: VisSpec::new( in crates/recs/src outside metadata_actions.rs — compile an intent (ActionContext::compile) or use lux_intent::dimension_by_measure"
    exit 1
fi
echo "ok: actions take their specs from the intent compiler"

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

echo "== one-door lint (admit_request( / .admit( outside core/luxframe.rs)"
# Admission has one door (DESIGN.md §10): every pass, printed or streamed,
# is admitted by LuxDataFrame's one helper, which opens the admitted pass's
# budget and deadline. A call anywhere else in product code is a second
# door that can skip the shaped budget, the ledger or the deadline shed.
admits=$(find crates/*/src -name '*.rs' ! -path 'crates/core/src/luxframe.rs' ! -path 'crates/engine/src/admission.rs' \
    -exec awk "$MARK_TESTS"' !t && /admit_request\(|\.admit\(/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$admits" ]; then
    echo "$admits"
    echo "error: a pass is admitted only in crates/core/src/luxframe.rs — open it through LuxDataFrame"
    exit 1
fi
echo "ok: passes are admitted only in crates/core/src/luxframe.rs"

echo "== one-door metadata lint (FrameMeta::compute*( outside engine/src/metadata.rs)"
# A frame's metadata has one door (DESIGN.md §9): every pass reads it through
# lux_engine::metadata::of_frame, which under WFLOW is the memo on the
# frame. A direct FrameMeta::compute* call in product code bypasses the
# memo: a second scan of a frame already scanned, and a second rule for when
# metadata is fresh. The experiment binaries are exempt — they time the scan.
computes=$(find crates/*/src -name '*.rs' ! -path 'crates/engine/src/metadata.rs' ! -path 'crates/bench/src/*' \
    -exec awk "$MARK_TESTS"' !t && /FrameMeta::compute[a-z_]*\(/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$computes" ]; then
    echo "$computes"
    echo "error: FrameMeta::compute* outside crates/engine/src/metadata.rs — read metadata through lux_engine::metadata::of_frame"
    exit 1
fi
echo "ok: metadata is read only through lux_engine::metadata::of_frame"

echo "== one-door retention lint (a DataFrame held in crates/dataframe/src outside History's two parents)"
# A frame keeps other frames alive in one place (DESIGN.md §9): its History
# holds the input of the last Filter and of the last Aggregate, the two
# frames the history actions show. A frame held anywhere else in the crate,
# on an event, an op's result or a cache, is retention per event or per op,
# and a chain of derived frames would keep every ancestor alive. Flagged: an
# `Arc`/`Rc`/`Box`/`Option`/`Vec` of a DataFrame on any line, and a DataFrame
# by value on a struct or enum body line; borrows (`&`, `&'a`) are not
# retention. Only History's two field lines are exempt.
retained=$(find crates/dataframe/src -name '*.rs' -exec awk "$MARK_TESTS"'
    t { next }
    /^[ \t]*(pub(\([a-z]+\))? )?(struct|enum) .*\{[ \t]*$/ { body = 1; next }
    body && /^[ \t]*}/ { body = 0 }
    { line = $0; sub(/\/\/.*/, "", line); gsub(/&('"'"'[a-z_]+ )?(mut )?/, "REF", line) }
    FILENAME ~ /\/history\.rs$/ && line ~ /^    (filter|aggregate)_parent: Option<Arc<DataFrame>>,$/ { next }
    line ~ /(^|[^A-Za-z_])(Arc|Rc|Box|Option|Vec)<([a-z_]+::)*DataFrame>/ ||
        body && line ~ /(^|[^A-Za-z_:])([a-z_]+::)*DataFrame([^A-Za-z_]|$)/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$retained" ]; then
    echo "$retained"
    echo "error: a DataFrame held in crates/dataframe/src outside History's filter_parent/aggregate_parent — a derived frame keeps only those two"
    exit 1
fi
echo "ok: frames are retained only by History's two parents"

echo "== budget-charge lint (try_charge( outside the planning steps)"
# A pass's bytes are charged before anything is allocated, by the steps that
# plan it (DESIGN.md §8): the metadata pass's column plan, each action's
# plan in the executor, and the governor and admission ledger themselves. A
# charge anywhere else — inside a kernel, say — is a run-time decision that
# makes the pass's accounting depend on scheduling or cache state.
charges=$(find crates/*/src -name '*.rs' \
    ! -path 'crates/engine/src/governor.rs' ! -path 'crates/engine/src/admission.rs' \
    ! -path 'crates/engine/src/metadata.rs' ! -path 'crates/recs/src/generate.rs' \
    -exec awk "$MARK_TESTS"' !t && /try_charge\(/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$charges" ]; then
    echo "$charges"
    echo "error: try_charge( outside engine/src/{governor,admission,metadata}.rs and recs/src/generate.rs — charge the budget in a plan, not at run time"
    exit 1
fi
echo "ok: the pass budget is charged only by the metadata and action plans"

echo "== cost-model lint (vis_cost( / action_cost( / time_budget( / prune_worthwhile( outside plan.rs)"
# The cost model prices every action once, in its plan (DESIGN.md §8): the
# PRUNE gate, the deadline and ASYNC's cheapest-first order all read that
# estimate. A call anywhere else in product code is a second pricing that
# can drift from the plan. The experiment binaries are exempt — Table 2
# prints the model's estimate beside the measured time.
pricing=$(find crates/*/src -name '*.rs' ! -path 'crates/recs/src/plan.rs' ! -path 'crates/bench/src/*' \
    -exec awk "$MARK_TESTS"' !t && /(vis_cost|action_cost|time_budget|prune_worthwhile)\(/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$pricing" ]; then
    echo "$pricing"
    echo "error: cost-model call outside crates/recs/src/plan.rs — read the action's Plan instead"
    exit 1
fi
echo "ok: the cost model is called only by crates/recs/src/plan.rs"

echo "== process-wide state lint (static Mutex / OnceLock / RwLock in crates/*/src)"
# State about a frame lives on the frame (DataFrame::state, DESIGN.md §9)
# and is freed with it; a process-wide map keyed by a frame's fingerprint
# outlives every frame it describes. These are the process-wide statics
# that remain, each reviewed: a new one needs a line here.
allowed='
crates/dataframe/src/ops/select.rs LAST
crates/engine/src/rng.rs WORLD
crates/engine/src/trace.rs GLOBAL
crates/engine/src/failpoint.rs REGISTRY
crates/engine/src/world.rs OWNER
crates/engine/src/pool.rs POOL
crates/engine/src/clock.rs VC
crates/engine/src/flight.rs GLOBAL
crates/engine/src/knobs.rs KNOBS
crates/engine/src/admission.rs GLOBAL
crates/server/src/mem.rs REG
crates/server/src/protocol.rs TABLES
'
statics=$(find crates/*/src -name '*.rs' -exec awk "$MARK_TESTS"' !t && match($0, /static [A-Z0-9_]+ *: *([a-z_]+::)*(Mutex|OnceLock|RwLock)</) { split(substr($0, RSTART + 7), w, /[ :]/); print FILENAME " " w[1] }' {} + | sort)
stray=$(comm -23 <(echo "$statics") <(echo "$allowed" | sed '/^$/d' | sort))
if [ -n "$stray" ]; then
    echo "$stray"
    echo "error: process-wide static outside the allowlist in scripts/lint.sh — keep per-frame state in DataFrame::state, or add a reviewed allowlist line"
    exit 1
fi
echo "ok: $(echo "$statics" | wc -l | tr -d ' ') process-wide statics, all on the allowlist"

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

echo "== caller lint (every non-test pub fn in crates/*/src is named in another file)"
# The observed-name rule below, for functions: a `pub fn` stays public only
# while a file other than its own names it — another module or crate, a
# test under tests/ or crates/*/tests/, an example, or the benchmark harness
# (its own workspace, built by scripts/check.sh). The match is by word in
# any tracked or new .rs file outside vendor/, so a same-named function
# elsewhere can hide an unread one, but what it flags is unread. The user
# API that README.md, docs/TUTORIAL.md or the paper documents is exempt.
# Otherwise make the function private or pub(crate), or delete it.
user_api=' to_code save_vega_lite remove_action deviation_from_uniform '
words=$(mktemp)
trap 'rm -f "$words"' EXIT
git ls-files --cached --others --exclude-standard -- '*.rs' ':!:vendor/**' \
    | while read -r f; do if [ -f "$f" ]; then echo "$f"; fi; done \
    | xargs -d '\n' grep -owH '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$words"
pub_fns=$(find crates/*/src -name '*.rs' -exec awk "$MARK_TESTS"' !t && match($0, /^[ \t]*pub fn [A-Za-z_][A-Za-z0-9_]*/) {
    name = substr($0, RSTART, RLENGTH); sub(/.*pub fn /, "", name); print FILENAME ":" FNR " " name }' {} +)
unread=$(echo "$pub_fns" | awk -v api="$user_api" -F: '
    NR == FNR { files[$2]++; next }
    { split($0, f, " "); if (files[f[2]] <= 1 && index(api, " " f[2] " ") == 0) print }' "$words" -)
if [ -n "$unread" ]; then
    echo "$unread"
    echo "error: a pub fn no other file names — make it private or pub(crate), delete it, or (documented user API only) add it to user_api in scripts/lint.sh"
    exit 1
fi
echo "ok: $(echo "$pub_fns" | wc -l | tr -d ' ') pub fns, each named outside its file or documented user API"

echo "== observed-name lint (metrics, failpoints, LUX_* variables)"
# One rule for the whole instrument surface: a metric in trace::names, a
# failpoint site in failpoint::names, or a LUX_* variable read under
# crates/*/src stays only while something observes it — a test, a
# #[cfg(test)] module, a script, a CI job, or the benchmark harness names
# it. Anything else is a write site nobody reads or a knob nobody turns:
# pin it in the test that provokes it, or delete it. A metric is read
# through the public surface, so only a test or benchmark file — under
# tests/, crates/*/tests/ or benchmark/src/ — counts as its observer.
observers=$(mktemp)
metric_observers=$(mktemp)
trap 'rm -f "$words" "$observers" "$metric_observers"' EXIT
find tests crates/*/tests benchmark/src -type f -exec cat {} + >"$metric_observers"
{
    cat "$metric_observers"
    find .github -type f -exec cat {} +
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
    if ! grep -qwF -e "$ident" -e "$name" "$metric_observers" && ! grep -qF "${name//./_}" "$metric_observers"; then
        echo "metric named in no test or benchmark file: $ident ($name)"
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
    echo "error: every metric needs an observer under tests/, crates/*/tests/ or benchmark/src/, and every failpoint and LUX_* variable one there, in a #[cfg(test)] module, scripts/ or .github/"
    exit 1
fi
echo "ok: $metrics metrics, $failpoints failpoints, $knobs LUX_* variables all observed"

echo "all lints passed"
