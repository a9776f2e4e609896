#!/usr/bin/env bash
# Tier-1 verification: everything CI runs, runnable locally.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> perfbench tests (the benchmark's own suite; breaks when the library surface it path-depends on does)"
cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> perf run at full size, one repetition (every workload's checks must pass)"
# `perf run` exits 0 even when a workload check fails: it prints one
# {"correct": ..., "failed": ...} line per workload, and each of the four
# must read correct and zero failed operations.
perf_out=$(cargo run -q --release --manifest-path perfbench/Cargo.toml -- run --reps 1)
results=$(printf '%s\n' "$perf_out" | grep '^{"correct": ' || true)
passed=$(printf '%s\n' "$results" | grep -c '^{"correct": true, .*"failed": 0,' || true)
if [ "$passed" -ne 4 ]; then
  printf '%s\n' "$results" >&2
  echo "perf run: $passed of 4 workloads correct with no failed operation" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy"
cargo clippy --workspace -- -D warnings

echo "==> cargo doc (no warnings: a doc link must not outlive the name it points at)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> xlint (static analysis: 7 rules on the token-tree lexer; DESIGN.md §14)"
# Violations print as file:line: rule: message and fail the build. The JSON
# report (including the model-coverage table) lands in target/ for CI to
# archive; in --json mode stdout carries the same bytes the tool writes.
mkdir -p target
cargo run -q --release -p xlint -- --json . > target/XLINT_REPORT.json
# Every module that imports a sync facade must be reached by a model test.
# The gate is covered == total, not a recorded count: a change that deletes
# a concurrency core shrinks both and passes; one that adds a core without
# a model suite, or drops the suite of one that stays, does not.
covered=$(grep -o '"covered": [0-9]*' target/XLINT_REPORT.json | grep -o '[0-9]*$')
total=$(grep -o '"total": [0-9]*' target/XLINT_REPORT.json | grep -o '[0-9]*$')
echo "xlint: model coverage $covered/$total modules"
if [ "$covered" -ne "$total" ]; then
  echo "xlint: $((total - covered)) facade-importing module(s) not reached by any model_* test" >&2
  exit 1
fi
# Waivers (`// PANICS:`, `// DETERMINISM:`, ...) are ratcheted against a
# recorded count, which may only fall.
waivers=$(grep -o '"waivers": [0-9]*' target/XLINT_REPORT.json | grep -o '[0-9]*$')
waiver_baseline=$(cat scripts/xlint_waiver_baseline)
if [ "$waivers" -gt "$waiver_baseline" ]; then
  echo "xlint: waivers rose: $waivers > baseline $waiver_baseline (fix the site instead of waiving it)" >&2
  exit 1
elif [ "$waivers" -lt "$waiver_baseline" ]; then
  echo "$waivers" > scripts/xlint_waiver_baseline
  echo "xlint: waivers fell to $waivers (baseline ratcheted)"
fi

echo "==> unsafe in vsscore only where it lives: the lane types and the worker pool"
# A kernel reaches the AVX2 lanes through lanes::widest and the host
# threads through pool::CpuPool; it writes no unsafe block of its own.
if grep -rnw unsafe crates/vsscore/src \
  | grep -v -e '^crates/vsscore/src/lanes\.rs:' -e '^crates/vsscore/src/pool\.rs:'; then
  echo "unsafe: the word appears in crates/vsscore/src outside lanes.rs and pool.rs" >&2
  exit 1
fi

echo "==> locks, atomics and threads only in the files that run on several threads or are shared by them"
# Listing a file here is a review decision: the worker pool and its
# facade, the process-wide grid cache, the scorer's binding-id counter,
# gpusim's device and timeline locks, and the trace recorder's one lock.
# vscheck and xlint are the tools that model and lint these primitives.
concurrency='Mutex|RwLock|Condvar|Atomic(U8|U16|U32|U64|Usize|I32|I64|Isize|Bool|Ptr)|thread_local!|thread::(spawn|scope)'
allowed='^crates/(vsscore/src/(pool|sync|grid_potential|scorer)|gpusim/src/(device|timeline)|vstrace/src/sink)\.rs$'
if grep -rlE "$concurrency" crates/*/src \
  | grep -v -e '^crates/vscheck/' -e '^crates/xlint/' \
  | grep -vE "$allowed"; then
  echo "concurrency: the files above name a lock, atomic or thread outside the list in scripts/ci.sh" >&2
  exit 1
fi

echo "==> vscheck + xlint self-tests (seeded mutations + replay on both checkers)"
cargo test -q -p vscheck
cargo test -q -p xlint

echo "==> vscheck model tests (exhaustive interleavings of the worker pool)"
# Bounded by each test's Config (preemption bound + schedule budget) so the
# suite stays well under a minute. Only what runs on several host threads
# is modelled: vsscore's pool (8 tests). metaheur, vsched, vscluster and
# vstrace are driven from one thread and have no sync facade.
cargo test -q -p vsscore --features vscheck-model model_

echo "==> trace and steal examples (each checks its exported chrome trace against the device clocks)"
mkdir -p target/trace_report target/steal_report
cargo run -q --release -p vs-examples --example trace_run -- target/trace_report
cargo run -q --release -p vs-examples --example runtime_steal -- target/steal_report

# Every deterministic snapshot is pinned one way. `pin FILE BIN [SED]`
# runs vs-bench's BIN, which checks its own gates and exits nonzero on a
# miss, into target/, deletes what the sed script SED matches (wall-time
# fields) and compares the rest with the checked-in FILE byte for byte.
pin() {
  echo "==> $2 pinned to $1"
  cargo run -q --release -p vs-bench --bin "$2" -- "target/$2.json"
  sed -E "${3:-}" "target/$2.json" | diff -u "$1" - \
    || { echo "$2: target/$2.json differs from the checked-in $1 (re-record it only with the reason in CHANGES.md)" >&2; exit 1; }
}
# Percent split vs work stealing vs the learned oracle; gates the steal gain.
pin BENCH_sched.json sched_snapshot
# Lockstep vs pipelined engine; gates the idle-fraction drop.
pin BENCH_pipeline.json pipeline_snapshot
# The bursty multi-tenant service; gates latency, utilization and the cache.
pin BENCH_campaign.json campaign_snapshot
# Grid vs Fused scores at four pitches; gates the error budget and the
# grid speedup. The grids must not move when their construction does.
pin scripts/grid_accuracy.expected grid_accuracy 's/, "grid_poses_per_sec": .* \}/ }/'

echo "==> bit-equivalence on the Table 5 complexes (release mode; grid build: 2BSM and 2BXG against the node-major gather, on 1, 2, 3, 7 and 64 z-ranges, and node by node vs portable [f64; 4] vs the host's detected lanes with equal term counts; grid interpolation: the scalar reference, portable [f64; 4], the detected lanes and Scorer::score_batch serial and on two threads over 256 poses, three models; grid reach: a lattice built only within the spots' reach against a whole Scorer::new on rim poses of 16 and of all spots, a spot 20 A outside the lattice, one- and nine-atom ligands; pair kernels: scalar lanes, portable [f64; 4] and the detected lanes over 64 poses, every model)"
cargo test --release -q -p vsscore --lib -- --ignored table5_

echo "==> linear drain guard (release mode: Service::drain over bursty_traffic at 25,000 and 100,000 bulk jobs, best of 3 each, unpinned and with every bulk sweep a static faulty screen (the filter matches pinned_drain_scales_linearly too); the time ratio must stay under 4^1.3, where a drain that moves its backlog on every dispatch takes about 4^2.3)"
cargo test --release -q -p vscluster --test drain_scaling -- --ignored drain_scales_linearly

echo "==> split scoring on dock_grid's configuration (release mode: 2BXG, grid kernel, learned oracle, ring at depth 4, 16 spots, M4 at 0.1; VirtualScreen::run, whose engine scores each spot's batch in its host job, against the same evaluator scoring whole batches: best bits, evaluations, virtual time, batch trace and trace payloads equal)"
cargo test --release -q -p vs-integration --test pipeline_acceptance -- --ignored table5_split_scoring_matches_whole_batches_on_dock_grid

echo "==> OK"
