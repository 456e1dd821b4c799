#!/usr/bin/env bash
# Mid-load metrics-scrape check (DESIGN.md §12): boot a real
# `lux-shell serve` process, drive client load against it, scrape it over
# the wire (`lux-shell client <addr> metrics`, the `Metrics` op) while
# prints are in flight, and fail on malformed exposition lines or missing
# catalogue metrics.
#
# Usage: scripts/scrape_check.sh [clients] [prints-per-client]
set -euo pipefail
cd "$(dirname "$0")/.."

CLIENTS="${1:-4}"
PRINTS="${2:-6}"

cargo build --release -q -p lux-cli --bin lux-shell
BIN=target/release/lux-shell

work=$(mktemp -d)
trap 'kill "${SERVE_PID:-0}" 2>/dev/null || true; rm -rf "$work"' EXIT

# A small deterministic CSV for the load clients.
{
    echo "mpg,hp,weight,origin"
    for i in $(seq 1 200); do
        echo "$((10 + i % 30)).5,$((50 + i * 7 % 200)),$((1500 + i * 13 % 3000)),origin$((i % 3))"
    done
} >"$work/cars.csv"

LUX_SERVER_DATA_DIR="$work/data" \
    "$BIN" serve 127.0.0.1:0 >"$work/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
    grep -q 'lux-serve: ready' "$work/serve.log" 2>/dev/null && break
    sleep 0.1
done
grep -q 'lux-serve: ready' "$work/serve.log" || {
    echo "error: server never became ready"; cat "$work/serve.log"; exit 1
}
ADDR=$(sed -n 's/^lux-serve: listening on //p' "$work/serve.log" | head -1)
echo "== server on $ADDR"

# Client load: N background clients, each uploading once and printing with
# rotating intents and a client-supplied request id.
CLIENT_PIDS=()
for c in $(seq 1 "$CLIENTS"); do
    (
        "$BIN" client "$ADDR" put "tenant-$c" cars "$work/cars.csv" >/dev/null
        for k in $(seq 1 "$PRINTS"); do
            "$BIN" client "$ADDR" print "tenant-$c" cars "mpg,hp" 0 "ci-$c-$k" >/dev/null || true
        done
    ) &
    CLIENT_PIDS+=("$!")
done

# Scrape mid-load: wait for the first tenant series to appear (load is in
# flight), then take the scrape that gets validated.
scrape() { "$BIN" client "$ADDR" metrics; }
for _ in $(seq 1 100); do
    if scrape 2>/dev/null | grep -q 'lux_tenant_requests{tenant="tenant-'; then break; fi
    sleep 0.1
done
scrape >"$work/body.txt" || { echo "error: metrics scrape failed"; exit 1; }
for pid in "${CLIENT_PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done

# 1. Every non-comment line must be `name{labels} value` with a numeric
#    value — malformed exposition fails the job.
awk '
    /^$/ || /^#/ { next }
    {
        if ($0 !~ /^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? -?[0-9.eE+]+$/) {
            print "malformed exposition line: " $0
            bad = 1
        }
        n += 1
    }
    END {
        if (n == 0) { print "empty exposition body"; exit 1 }
        print n " samples checked"
        exit bad
    }
' "$work/body.txt"

# 2. Catalogue: the server, per-tenant SLO, journal, and flight-recorder
#    series must all be present in a mid-load scrape.
missing=0
for needle in \
    'lux_server_requests' \
    'lux_server_journal_appends' \
    'lux_prints' \
    'lux_tenant_requests{tenant="tenant-' \
    'lux_tenant_sheds{tenant="tenant-' \
    'lux_tenant_pass_latency_seconds{tenant="tenant-1",quantile="0.5"}' \
    'lux_tenant_pass_latency_seconds{tenant="tenant-1",quantile="0.99"}' \
    'lux_tenant_queue_wait_seconds_count{tenant="tenant-' \
    'lux_flight_recorded'; do
    if ! grep -qF "$needle" "$work/body.txt"; then
        echo "error: catalogue metric missing from scrape: $needle"
        missing=1
    fi
done
[ "$missing" -eq 0 ] || { echo "-- scrape body --"; cat "$work/body.txt"; exit 1; }

kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
echo "scrape check passed"
