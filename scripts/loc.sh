#!/bin/sh
# Prints the non-test line count ROADMAP.md tracks: every line of each
# Rust file in crates/*/src and examples/ up to its first
# `#[cfg(test)]`, without the test-only crates/refsim.
#
# Run from anywhere: scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
find crates/*/src examples -name '*.rs' -not -path 'crates/refsim/*' | sort |
    xargs awk 'FNR == 1 { tests = 0 } /#\[cfg\(test\)\]/ { tests = 1 } !tests { n++ } END { print n }'
