#!/usr/bin/env bash
# Repo hygiene gate: formatting, build, tests, and the grep lints of
# scripts/lint.sh (unwrap and f64_at baselines, options literals, one
# record per print, clock/rng drift, observed names) — the same file the CI
# Hygiene job runs.
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

echo "== benchmark/ builds and tests against the product APIs"
# benchmark/ is its own workspace: nothing above compiles it, so a product
# API change that breaks the harness would only show at the next perf run.
cargo check --offline --locked --manifest-path benchmark/Cargo.toml --quiet
( cd benchmark && cargo test --offline --quiet )

scripts/lint.sh

echo "all checks passed"
