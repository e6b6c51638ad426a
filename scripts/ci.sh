#!/usr/bin/env bash
# Local CI: formatting, lints, tests. Run from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
cargo test -q --workspace

echo "== cargo test (QP_THREADS=4: parallel substrate leg)"
QP_THREADS=4 cargo test -q --workspace

echo "== perfbench: build and unit tests against the committed lock file"
# perfbench is a workspace of its own that calls the library's entry
# points and pins its dependency graph in perfbench/Cargo.lock. --locked
# fails here, not in a later benchmark run, when a change to its crates
# would rewrite that lock or break an entry point it calls.
cargo build --release --locked --offline --manifest-path perfbench/Cargo.toml
cargo test --release --locked --offline -q --manifest-path perfbench/Cargo.toml

echo "== perf smoke: e2e, scheduling and scaling guards (bench_perf --quick --guard)"
# The phase and ledger checks read the full run's ligand-49 case; the
# quick run has none and reports them skipped. Without --out it writes
# nothing: the committed BENCH_perf.json must come out unchanged.
bench_before="$(mktemp)"
cp BENCH_perf.json "$bench_before"
bash scripts/bench_perf.sh --quick --guard
cmp BENCH_perf.json "$bench_before" \
  || { echo "bench_perf --quick changed BENCH_perf.json"; exit 1; }
rm -f "$bench_before"
echo "-- the quick run left BENCH_perf.json unchanged"

echo "== regenerate BENCH_perf.json under the tightened e2e guard"
# Full workloads with --guard: exits 3 or 6 when the ligand-49 case's
# Sternheimer or Rho self-time outgrows its multiple of Sumup, 12 when its
# phase rows stop adding up to the wall, and 4 when a case's parallel leg
# is slower than its serial reference on a >= 2-core host (zero slack) in
# the median of three serial/parallel pairs (the second and third are run
# only when the first pair is over the limit). The guard also covers the
# polymer weak-scaling sweep: exit 7 if the fitted end-to-end assembly
# exponent exceeds 1.75, exit 9 if the tree-mode Rho exponent exceeds 1.4,
# exit 11 if the tree far field deviates from the direct oracle beyond
# QP_FARFIELD_TOL.
QP_THREADS=2 bash scripts/bench_perf.sh --guard --out BENCH_perf.json

echo "== archive weak-scaling rows (results/weak_scaling.json)"
mkdir -p results
jq '.weak_scaling' BENCH_perf.json > results/weak_scaling.json
test -s results/weak_scaling.json
echo "-- archived results/weak_scaling.json"

echo "== golden records: result bytes pinned in results/golden/"
# Each record is the committed --result-json of one coarse-grid run: water,
# --no-pulay water, tier2 water (the only l = 2 basis tabulation), smeared
# ligand-49 and polymer:8. The screening, thread-count and SPMD legs below
# compare their runs of these jobs with the records; this leg makes the two
# runs no other leg does. A change that alters a bit regenerates the records
# and says so. The bytes depend on the toolchain's libm (exp, atan2, sin,
# cos, powf), so a host with another libm regenerates them too.
cargo build -q --release -p qp-cli
golden() { # record tag
  cmp "$1" "results/golden/$2.json" \
    || { echo "$2: result bytes differ from results/golden/$2.json"; exit 1; }
  echo "-- $2 == results/golden/$2.json (byte-identical)"
}
golden_dir="$(mktemp -d)"
QP_LOG=warn QP_THREADS=3 ./target/release/qperturb --builtin water --grid coarse \
    --basis tier2 --result-json "$golden_dir/water_tier2.json" > /dev/null
golden "$golden_dir/water_tier2.json" water_tier2
QP_LOG=warn QP_THREADS=3 ./target/release/qperturb --builtin water --grid coarse \
    --no-pulay --result-json "$golden_dir/water_no_pulay.json" > /dev/null
golden "$golden_dir/water_no_pulay.json" water_no_pulay
rm -rf "$golden_dir"

echo "== screened vs dense: byte-identical result records (QP_THREADS=3)"
# Screening changes only how each batch finds its basis functions, so the
# records of --screening on and off must be the golden one, down to the
# byte. Smeared ligand-49 is the size the benchmark runs.
screen_dir="$(mktemp -d)"
screen_case() { # tag qperturb-args...
  local tag="$1" mode
  shift
  for mode in on off; do
    QP_LOG=warn QP_THREADS=3 ./target/release/qperturb "$@" --grid coarse \
        --screening "$mode" --result-json "$screen_dir/${tag}_$mode.json" > /dev/null
  done
  cmp "$screen_dir/${tag}_on.json" "$screen_dir/${tag}_off.json"
  echo "-- $tag screened == dense (byte-identical)"
  golden "$screen_dir/${tag}_on.json" "$tag"
}
screen_case water --builtin water
screen_case polymer_8 --builtin polymer:8
screen_case smeared_ligand --builtin ligand --smearing 0.02
rm -rf "$screen_dir"

echo "== thread count: byte-identical result records (smeared ligand-49, QP_THREADS=1 vs 3)"
# 145 basis functions: the eigensolver's triangular solves split into
# column blocks that fan out across the pool, and every region of the job
# runs at both widths. The record must not change by a byte.
threads_dir="$(mktemp -d)"
for threads in 1 3; do
  QP_LOG=warn QP_THREADS=$threads ./target/release/qperturb --builtin ligand \
      --grid coarse --smearing 0.02 \
      --result-json "$threads_dir/ligand_t$threads.json" > /dev/null
done
cmp "$threads_dir/ligand_t1.json" "$threads_dir/ligand_t3.json"
echo "-- ligand QP_THREADS=1 == QP_THREADS=3 (byte-identical)"
golden "$threads_dir/ligand_t1.json" smeared_ligand
rm -rf "$threads_dir"

echo "== far field: tree-served polarizability vs the direct oracle (QP_THREADS=3)"
# The tree far field is on a tolerance contract (QP_FARFIELD_TOL), not a
# byte one: the full DFPT observable must land within 1e-6 Bohr^3 of the
# --farfield direct record, which itself stays byte-stable (the default
# auto route keeps these small systems on the direct path — covered by the
# screening leg's cmp above).
ff_dir="$(mktemp -d)"
for mol in water polymer:8; do
  tag="${mol/:/_}"
  QP_LOG=warn QP_THREADS=3 ./target/release/qperturb --builtin "$mol" \
      --grid coarse --farfield direct \
      --result-json "$ff_dir/${tag}_direct.json" > /dev/null
  QP_LOG=warn QP_THREADS=3 ./target/release/qperturb --builtin "$mol" \
      --grid coarse --farfield tree \
      --result-json "$ff_dir/${tag}_tree.json" > /dev/null
  jq -e --slurpfile ref "$ff_dir/${tag}_direct.json" '
      [.alpha[][]] as $t
      | [$ref[0].alpha[][]] as $r
      | [range($t | length) | (($t[.] - $r[.]) | if . < 0 then -. else . end)]
      | max < 1e-6' "$ff_dir/${tag}_tree.json" > /dev/null \
    || { echo "$mol: tree alpha deviates from direct by >= 1e-6"; exit 1; }
  echo "-- $mol tree alpha == direct alpha (within 1e-6)"
done
rm -rf "$ff_dir"

echo "== SPMD: distributed polarizability vs the serial record (QP_THREADS=1)"
# The serial driver is the distributed one on a single rank: --ranks 1 must
# reproduce the serial --result-json byte for byte. More ranks run the same
# loop on their own batches and sum the partial moments and H1 across
# ranks, so they differ only in the order of those additions: alpha at 2
# and 4 ranks must land within 1e-9 Bohr^3 of the serial record. Smeared
# water covers a fractional-occupation ground state.
spmd_dir="$(mktemp -d)"
alpha_within() { # record reference bound -> exit status
  jq -e --slurpfile ref "$2" --argjson bound "$3" '
      [.alpha[][]] as $t
      | [$ref[0].alpha[][]] as $r
      | [range($t | length) | (($t[.] - $r[.]) | if . < 0 then -. else . end)]
      | max < $bound' "$1" > /dev/null
}
spmd_case() { # tag "rank counts" qperturb-args...
  local tag="$1" rank_list="$2" ranks out
  shift 2
  QP_LOG=warn QP_THREADS=1 ./target/release/qperturb "$@" \
      --result-json "$spmd_dir/${tag}_serial.json" > /dev/null
  for ranks in $rank_list; do
    out="$spmd_dir/${tag}_ranks_$ranks.json"
    QP_LOG=warn QP_THREADS=1 ./target/release/qperturb "$@" --ranks "$ranks" \
        --result-json "$out" > /dev/null
    if [ "$ranks" = 1 ]; then
      cmp "$spmd_dir/${tag}_serial.json" "$out"
      echo "-- $tag --ranks 1 == serial (byte-identical)"
    else
      alpha_within "$out" "$spmd_dir/${tag}_serial.json" 1e-9 \
        || { echo "$tag --ranks $ranks: alpha deviates from serial by >= 1e-9"; exit 1; }
      echo "-- $tag --ranks $ranks alpha == serial alpha (within 1e-9)"
    fi
  done
}
spmd_case polymer_8 "1 2 4" --builtin polymer:8 --grid coarse
golden "$spmd_dir/polymer_8_serial.json" polymer_8
spmd_case smeared_water "1 2" --builtin water --grid coarse --smearing 0.02
rm -rf "$spmd_dir"

echo "== profile smoke: qperturb --profile on water (schema + artifact)"
cargo build -q --release -p qp-cli -p qp-bench
profile_dir="$(mktemp -d)"
QP_LOG=warn ./target/release/qperturb --builtin water --grid coarse \
    --profile "$profile_dir/profile_water"
./target/release/profile_report --validate "$profile_dir/profile_water.json"
test -s "$profile_dir/profile_water.folded" \
    || { echo "collapsed-stack artifact missing or empty"; exit 1; }
mkdir -p results
cp "$profile_dir/profile_water.folded" results/profile_water.folded
echo "-- archived results/profile_water.folded"
# The case name is the geometry file's name as given: a `"` and a `\` in it
# must come back escaped, in a report that still validates.
quoted_xyz="$profile_dir/wa\"t\\er.xyz"
printf '3\nwater\nO 0.0 0.0 0.0\nH 0.756950 0.585882 0.0\nH -0.756950 0.585882 0.0\n' \
    > "$quoted_xyz"
QP_LOG=warn ./target/release/qperturb "$quoted_xyz" --grid coarse \
    --profile "$profile_dir/profile_quoted" > /dev/null
./target/release/profile_report --validate "$profile_dir/profile_quoted.json"
jq -e --arg name "$quoted_xyz" '.case == $name' "$profile_dir/profile_quoted.json" > /dev/null \
  || { echo "profile report lost its case name: $quoted_xyz"; exit 1; }
echo "-- a case name holding '\"' and '\\' round-trips through the report"
rm -rf "$profile_dir"

echo "== figures: the kernel-driven figures regenerate byte-identically"
# fig09b runs the Sumup and H kernels in both access modes; fig14 runs all
# four kernels through the phase_model calibration. Their counters are
# deterministic, so the archived outputs are a regression check.
fig_dir="$(mktemp -d)"
for fig in fig09b_density_hamiltonian fig14_overall; do
  ./target/release/$fig > "$fig_dir/$fig.txt"
  cmp "$fig_dir/$fig.txt" "results/$fig.txt"
  echo "-- $fig == results/$fig.txt (byte-identical)"
done
rm -rf "$fig_dir"

echo "== fault-injection smoke matrix (qperturb + QP_FAULT)"
# A run that loses a rank recovers from its checkpoint to the fault-free
# bytes: every plan's record must cmp equal to a fault-free --ranks 4 run.
cargo build -q --release -p qp-cli
fault_dir="$(mktemp -d)"
QP_LOG=warn ./target/release/qperturb --builtin water --grid coarse --ranks 4 \
    --result-json "$fault_dir/fault_free.json" > /dev/null
for plan in \
    "seed=1;crash:rank=1,iter=2" \
    "seed=2;crash:rank=0,iter=4" \
    "seed=3;stall:rank=2,iter=3,ms=20;crash:rank=2,iter=5"; do
  echo "-- QP_FAULT='$plan'"
  ck_dir="$(mktemp -d)"
  QP_LOG=warn QP_FAULT="$plan" ./target/release/qperturb --builtin water \
      --grid coarse --ranks 4 --checkpoint-dir "$ck_dir" \
      --checkpoint-interval 2 --result-json "$fault_dir/faulted.json"
  cmp "$fault_dir/fault_free.json" "$fault_dir/faulted.json"
  [ "$(ls "$ck_dir")" = job.qpck ] \
    || { echo "checkpoint dir holds more than job.qpck: $(ls "$ck_dir")"; exit 1; }
  rm -rf "$ck_dir"
done
echo "-- every faulted run == the fault-free --ranks 4 record (byte-identical)"

echo "== checkpoint restart: a --restart run resumes to the same bytes"
ck_dir="$(mktemp -d)"
QP_LOG=warn ./target/release/qperturb --builtin water --grid coarse --ranks 4 \
    --checkpoint-dir "$ck_dir" --checkpoint-interval 2 \
    --result-json "$fault_dir/first.json" > /dev/null
QP_LOG=warn ./target/release/qperturb --builtin water --grid coarse --ranks 4 \
    --checkpoint-dir "$ck_dir" --checkpoint-interval 2 --restart \
    --result-json "$fault_dir/restarted.json" > /dev/null
cmp "$fault_dir/first.json" "$fault_dir/restarted.json"
echo "-- restarted == first run (byte-identical)"
# A checkpoint directory alone keeps DFPT serial: the record changes no bit.
QP_LOG=warn ./target/release/qperturb --builtin water --grid coarse \
    --result-json "$fault_dir/plain.json" > /dev/null
QP_LOG=warn ./target/release/qperturb --builtin water --grid coarse \
    --checkpoint-dir "$ck_dir/serial" --result-json "$fault_dir/serial_ck.json" > /dev/null
cmp "$fault_dir/plain.json" "$fault_dir/serial_ck.json"
echo "-- serial --checkpoint-dir == plain run (byte-identical)"
rm -rf "$ck_dir" "$fault_dir"

echo "== kill -9 mid-job: --restart resumes from job.qpck to the plain bytes"
kill_dir="$(mktemp -d)"
kill_case() { # tag qperturb-args...
  local tag="$1" pid status=0
  shift
  QP_LOG=warn ./target/release/qperturb --builtin polymer:2 "$@" \
      --result-json "$kill_dir/${tag}_plain.json" > /dev/null
  QP_LOG=warn ./target/release/qperturb --builtin polymer:2 "$@" \
      --checkpoint-dir "$kill_dir/$tag" --checkpoint-interval 2 > /dev/null &
  pid=$!
  for _ in $(seq 1 600); do
    [ -e "$kill_dir/$tag/job.qpck" ] && break
    sleep 0.05
  done
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || status=$?
  [ "$status" = 137 ] || { echo "$tag: the run ended (exit $status) before the kill"; exit 1; }
  QP_LOG=warn ./target/release/qperturb --builtin polymer:2 "$@" \
      --checkpoint-dir "$kill_dir/$tag" --checkpoint-interval 2 --restart \
      --result-json "$kill_dir/${tag}_restarted.json" > /dev/null
  cmp "$kill_dir/${tag}_plain.json" "$kill_dir/${tag}_restarted.json"
  echo "-- $tag: killed and restarted == plain (byte-identical)"
}
kill_case serial
kill_case ranks_2 --ranks 2
rm -rf "$kill_dir"

echo "== edge inputs end in a typed error or a result, never a panic"
edge_dir="$(mktemp -d)"
printf '1\nH atom\nH 0.0 0.0 0.0\n' > "$edge_dir/h.xyz"
printf '2\nOH radical\nO 0.0 0.0 0.0\nH 0.0 0.0 0.97\n' > "$edge_dir/oh.xyz"
printf '2\nsame point\nH 0.0 0.0 0.0\nH 0.0 0.0 0.0\n' > "$edge_dir/same.xyz"
expect_exit() { # code qperturb-args...
  local want="$1" got=0
  shift
  QP_LOG=error ./target/release/qperturb "$@" > /dev/null 2>&1 || got=$?
  [ "$got" = "$want" ] || { echo "qperturb $*: exit $got, expected $want"; exit 1; }
  echo "-- qperturb $*: exit $got"
}
expect_exit 0 "$edge_dir/h.xyz" --grid coarse --smearing 0.02
expect_exit 1 "$edge_dir/oh.xyz" --grid coarse
expect_exit 0 "$edge_dir/oh.xyz" --grid coarse --smearing 0.02
expect_exit 1 "$edge_dir/same.xyz" --grid coarse
expect_exit 1 --builtin helix:0
expect_exit 2 --builtin water --smearing 0
expect_exit 2 --builtin water --dfpt-mixing 0
expect_exit 2 --builtin water --ranks 0
# A rank that fails past the restart budget is reported as a rank failure,
# with the hint that fits it, not as a convergence failure.
got=0
QP_LOG=error QP_FAULT="seed=5;crash:rank=2,iter=4" ./target/release/qperturb \
    --builtin water --grid coarse --ranks 4 --max-restarts 0 \
    > /dev/null 2> "$edge_dir/rank_failure.err" || got=$?
[ "$got" = 1 ] || { echo "rank failure: exit $got, expected 1"; exit 1; }
grep -q "rank failed" "$edge_dir/rank_failure.err" \
  || { echo "rank failure not named: $(cat "$edge_dir/rank_failure.err")"; exit 1; }
! grep -qi "mixing" "$edge_dir/rank_failure.err" \
  || { echo "rank failure hint mentions mixing: $(cat "$edge_dir/rank_failure.err")"; exit 1; }
echo "-- rank failure past --max-restarts 0: exit 1, named as a rank failure"
# A record of another job is refused, naming the file, and never resumed.
QP_LOG=error ./target/release/qperturb --builtin water --grid coarse \
    --checkpoint-dir "$edge_dir/ck" --no-dfpt > /dev/null
expect_exit 1 --builtin polymer:1 --grid coarse --checkpoint-dir "$edge_dir/ck" --restart
expect_exit 2 --builtin water --grid coarse --checkpoint-dir "$edge_dir/ck" --profile "$edge_dir/p"
# A profile of a job whose SCF does not converge ends in the typed error
# (exit 1) and writes no report.
printf 'sc_iter_limit 2\n' > "$edge_dir/short.control"
expect_exit 1 --builtin water --grid coarse --control "$edge_dir/short.control" \
    --profile "$edge_dir/p"
[ ! -e "$edge_dir/p.json" ] || { echo "--profile wrote a report for a failed job"; exit 1; }
echo "-- no report written for the failed profile"
rm -rf "$edge_dir"

echo "== serve smoke: served == direct bytes; kill -9 mid-job resumes bit-exactly"
cargo build -q --release -p qp-cli
serve_dir="$(mktemp -d)"
scrape_addr() { # log-file -> bound address (the startup handshake line)
  local log="$1" a=""
  for _ in $(seq 1 100); do
    a="$(sed -n 's/^qp-serve listening on //p' "$log" | head -n1)"
    [ -n "$a" ] && { echo "$a"; return 0; }
    sleep 0.1
  done
  echo "qp-serve did not report its address" >&2
  cat "$log" >&2
  return 1
}
QP_LOG=warn ./target/release/qperturb serve --addr 127.0.0.1:0 \
    --state-dir "$serve_dir/state" > "$serve_dir/serve.log" 2>&1 &
serve_pid=$!
addr="$(scrape_addr "$serve_dir/serve.log")"
QP_LOG=warn ./target/release/qperturb submit --addr "$addr" --builtin water \
    --json > "$serve_dir/served.json"
QP_LOG=warn ./target/release/qperturb --builtin water \
    --result-json "$serve_dir/direct.json" > /dev/null
cmp "$serve_dir/served.json" "$serve_dir/direct.json"
echo "-- served water == direct water (byte-identical)"

# Kill the server mid-job; the restarted server must re-admit the job from
# its QPCK checkpoint and land on the direct-path bytes.
job="$(QP_LOG=warn ./target/release/qperturb submit --addr "$addr" \
    --builtin polymer:2 --no-wait --json | sed -n 's/.*"job": *\([0-9]*\).*/\1/p')"
[ -n "$job" ] || { echo "no job id from --no-wait submit"; exit 1; }
sleep 1
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
QP_LOG=warn ./target/release/qperturb serve --addr 127.0.0.1:0 \
    --state-dir "$serve_dir/state" > "$serve_dir/serve2.log" 2>&1 &
serve_pid=$!
addr="$(scrape_addr "$serve_dir/serve2.log")"
QP_LOG=warn ./target/release/qperturb wait --addr "$addr" --job "$job" \
    > "$serve_dir/resumed.json"
QP_LOG=warn ./target/release/qperturb --builtin polymer:2 \
    --result-json "$serve_dir/direct_polymer.json" > /dev/null
cmp "$serve_dir/resumed.json" "$serve_dir/direct_polymer.json"
echo "-- killed-and-resumed polymer:2 == direct (byte-identical)"
QP_LOG=warn ./target/release/qperturb shutdown --addr "$addr"
wait "$serve_pid" 2>/dev/null || true
rm -rf "$serve_dir"

echo "CI green."
