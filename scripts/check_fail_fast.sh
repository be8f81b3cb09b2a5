#!/usr/bin/env bash
# Asserts that the bench drivers and examples reject bad flags and inputs
# with their exit status and message, before doing any work.
#
#   scripts/check_fail_fast.sh [BUILD_DIR]    # default: build
#
# Needs bench_alloc_scaling, bench_swf_replay, trace_replay_tool,
# mesh_animation and strategy_comparison built in BUILD_DIR. Exit 2 rejections must print exactly one
# stderr line; bench_alloc_scaling exits 1 and adds its usage line. No case
# may print anything on stdout. Runs inside a temporary directory, so a
# driver that wrongly starts working leaves no output files behind.
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
b=$(cd "${1:-build}" && pwd) || exit 2
swf=$root/tests/data/mini.swf
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp" || exit 2
failures=0

# expect STATUS LINES MESSAGE CMD...
expect() {
  local status=$1 lines=$2 message=$3
  shift 3
  "$@" > "$tmp/out" 2> "$tmp/err"
  local got=$?
  local problem=""
  if [ "$got" -ne "$status" ]; then
    problem="exit $got, want $status"
  elif [ -s "$tmp/out" ]; then
    problem="wrote to stdout"
  elif [ "$(wc -l < "$tmp/err")" -ne "$lines" ]; then
    problem="$(wc -l < "$tmp/err") stderr lines, want $lines"
  elif [ "$(head -n 1 "$tmp/err")" != "$message" ]; then
    problem="message '$(head -n 1 "$tmp/err")', want '$message'"
  fi
  if [ -n "$problem" ]; then
    echo "FAIL: $* -> $problem"
    failures=$((failures + 1))
  else
    echo "ok:   $* -> exit $got: $message"
  fi
}

expect 1 2 "error: malformed number in --check=abc" "$b/bench_alloc_scaling" --check=abc
expect 1 2 "error: --check must be >= 0" "$b/bench_alloc_scaling" --check=-5
expect 1 2 "error: unknown option --bogus" "$b/bench_alloc_scaling" --bogus

expect 2 1 "bench_swf_replay: malformed number in --mesh=12x" \
  "$b/bench_swf_replay" --swf="$swf" --mesh=12x
expect 2 1 "bench_swf_replay: malformed number in --mesh=abc" \
  "$b/bench_swf_replay" --swf="$swf" --mesh=abc
expect 2 1 "bench_swf_replay: --coalesce takes 0|1, not 'yes'" \
  "$b/bench_swf_replay" --swf="$swf" --coalesce=yes
expect 2 1 "bench_swf_replay: load_swf_file: cannot open $tmp/missing.swf" \
  "$b/bench_swf_replay" --swf="$tmp/missing.swf"

expect 2 1 "$b/trace_replay_tool: malformed number in --load=abc" \
  "$b/trace_replay_tool" --load=abc
expect 2 1 "$b/trace_replay_tool: --load must be positive" "$b/trace_replay_tool" --load=0

usage="(usage: mesh_animation [gabl|paging|mbs|random] [frames])"
expect 2 1 "mesh_animation: unknown strategy 'bogus' $usage" "$b/mesh_animation" bogus
expect 2 1 "mesh_animation: malformed number in abc $usage" "$b/mesh_animation" gabl abc

known_sched="(known: FCFS, SSD, SJF, LJF, lookahead:<k>, backfill[:conservative][;shape])"
expect 2 1 "$b/strategy_comparison: unknown scheduler 'bogus' $known_sched" \
  "$b/strategy_comparison" --sched=FCFS,bogus
known_workload="(known: uniform, exponential, real, swf:<path>, saturation, bursty)"
expect 2 1 "$b/strategy_comparison: unknown workload 'bogus' $known_workload" \
  "$b/strategy_comparison" --workload=bogus

if [ "$failures" -ne 0 ]; then
  echo "$failures fail-fast check(s) failed"
  exit 1
fi
echo "all fail-fast checks passed"
