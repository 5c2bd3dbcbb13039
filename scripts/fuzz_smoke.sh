#!/bin/sh
# Build the fuzz harnesses and give each a short smoke run.
#
#   sh scripts/fuzz_smoke.sh [build-dir]
#
# With a clang toolchain the harnesses embed libFuzzer and the smoke run
# mutates for $FUZZ_TIME seconds (default 60) per target, seeded from the
# checked-in corpus. With gcc there is no fuzzing engine, so the run
# degrades to a corpus replay through the identical harness code — still a
# real execution of every parser entry point, just without mutation.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
fuzz_time="${FUZZ_TIME:-60}"

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -B "$build" -S "$root"
fi
cmake --build "$build" -j"$(nproc)" --target fuzz_serial fuzz_frames fuzz_aead

status=0
for name in fuzz_serial fuzz_frames fuzz_aead; do
  bin="$build/fuzz/$name"
  corpus="$root/fuzz/corpus/${name#fuzz_}"
  if "$bin" -help=1 2>&1 | grep -q "libFuzzer"; then
    echo "== $name: libFuzzer, ${fuzz_time}s =="
    work="$build/fuzz/work-${name#fuzz_}"
    mkdir -p "$work"
    "$bin" -max_total_time="$fuzz_time" -timeout=10 -print_final_stats=1 \
        "$work" "$corpus" || status=1
  else
    echo "== $name: no fuzzing engine, corpus replay =="
    "$bin" "$corpus" || status=1
  fi
done
exit $status
