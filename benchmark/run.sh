#!/usr/bin/env bash
# Builds sdbench offline and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S]          every workload: untraced, then traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                      one workload, one JSON result line (BENCHMARK.json's command)
#   benchmark/run.sh repeat [--seed N]                 the whole set twice, compared within bounds
#   benchmark/run.sh manifest [--write]                regenerate BENCHMARK.json + benchmark/manifest.json
#   benchmark/run.sh test                              the benchmark's self-tests
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

manifest=benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-benchmark/target}"

if [[ "${1:-}" == "test" ]]; then
    exec cargo test --release --offline --quiet --manifest-path "$manifest"
fi

# No profile overrides, no features: measure what ships. A failed build is
# a failed benchmark — nothing runs and the exit code says so.
build_start=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
build_s=$(echo "$(date +%s.%N) $build_start" | awk '{printf "%.3f", $1 - $2}')
bin="$target/release/sdbench"

# One malloc arena: every workload is pinned to one CPU, and glibc's
# per-thread arenas otherwise make peak RSS 20 MB or 26 MB by chance.
export MALLOC_ARENA_MAX=1

case "${1:-}" in
    repeat | manifest | all | run)
        exec "$bin" "$@"
        ;;
esac
for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$bin" run "$@"
    fi
done
echo "all build_s $build_s s (compile time; not part of setup_s)"
exec "$bin" all "$@"
