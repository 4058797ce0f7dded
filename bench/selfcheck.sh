#!/usr/bin/env bash
# Runs the whole suite twice on the checked-out commit with one seed and
# compares the two: every end-to-end metric must agree within its bound
# and every exact count must repeat. This is the benchmark measuring its
# own noise; run it before trusting a delta smaller than what it shows.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seed="${SEED:-1}"
out="$root/bench/out"
bash "$root/bench/run.sh" -seed "$seed" -out "$out/selfcheck-a.json" >/dev/null
bash "$root/bench/run.sh" -seed "$seed" -out "$out/selfcheck-b.json" >/dev/null
bash "$root/bench/run.sh" -compare "$out/selfcheck-a.json" "$out/selfcheck-b.json"
