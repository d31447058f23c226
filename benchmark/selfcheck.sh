#!/bin/sh
# Runs every workload end to end twice and compares the two sets against
# the bounds in BENCHMARK.json; exits non-zero on a breach or a failed op.
# Takes about four minutes. Meant for a CI job on a quiet 2-CPU runner.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- selfcheck "$@"
