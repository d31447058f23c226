#!/bin/sh
# Samples the CPU of one command and prints where it went, plus its peak
# resident set (ru_maxrss):
#
#   scripts/profile/profile.sh target/release/campaign --workers 2 --out /tmp/c.jsonl
#
# Compiles sampler.c into a temporary directory, runs the command with
# it preloaded (PROFILE_US sets the sampling period in microseconds of
# CPU time, default 1000; PROFILE_US=0 only reports memory) and hands
# every sample file the command's processes wrote to report.py
# (REPORT_ARGS, e.g. "--top 60 --match uvllm", or "--lines" for self
# time by innermost function @file:line, are passed on). Build
# the binary with debug info for inlined frames and line numbers.
set -eu
here="$(cd "$(dirname "$0")" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
${CC:-cc} -O2 -shared -fPIC -o "$work/sampler.so" "$here/sampler.c"
status=0
PROFILE_OUT="$work/profile" LD_PRELOAD="$work/sampler.so" "$@" || status=$?
if [ "${PROFILE_US:-1000}" != 0 ]; then
    # shellcheck disable=SC2086
    python3 "$here/report.py" ${REPORT_ARGS:-} "$work"/profile.*
fi
exit "$status"
