#!/usr/bin/env bash
# The repo benchmark (see BENCHMARK.json and benchmark/README.md).
#
#   benchmark/run.sh                       every workload, end-to-end metrics
#   benchmark/run.sh --traced              ... followed by the per-layer traced run
#   benchmark/run.sh --workload print_tall --seed 12 --seconds 20 --trace 1
#   benchmark/run.sh --check-repeat        the untraced set twice on one seed, once on the next
#
# Builds lux-benchmark from source, then runs it with a hermetic environment
# from the repo root. Everything written lands under benchmark/out/ or the
# cargo target directory.
set -euo pipefail
cd "$(dirname "$0")/.."

# The product reads its knobs from LUX_* variables; none may leak in.
for var in $(compgen -e | grep '^LUX_' || true); do
  unset "$var"
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2

export BENCHMARK_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCHMARK_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/lux-benchmark" "$@"
