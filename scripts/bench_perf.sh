#!/usr/bin/env bash
# End-to-end perf tracker -> BENCH_perf.json: the ligand-49 and polyethylene
# SCF + DFPT cases through the profiler (`qperturb --profile`'s), GEMM
# throughput, and the polymer weak-scaling sweep of the production build,
# Sumup, H and Rho kernels.
#
#   scripts/bench_perf.sh            # full workloads, writes BENCH_perf.json
#   scripts/bench_perf.sh --quick    # CI smoke (~1 s), writes nothing
#                                    # unless --out PATH is given
#
# The parallel leg runs on QP_THREADS threads (default: all cores; the
# binary clamps to >= 2). Extra flags are passed through to the bench_perf
# binary (e.g. --out PATH, --guard for the phase, end-to-end, scheduling
# and weak-scaling regression checks).
set -euo pipefail
cd "$(dirname "$0")/.."

export QP_THREADS="${QP_THREADS:-$(nproc)}"

cargo build -q --release -p qp-bench --bin bench_perf
exec ./target/release/bench_perf "$@"
