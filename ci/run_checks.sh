#!/usr/bin/env bash
# One-command CI: tier-1 tests, the randomized fuzz suites, and a
# ThreadSanitizer pass over the multi-threaded engine tests.
#
#   ci/run_checks.sh          # everything
#   ci/run_checks.sh --fast   # skip the sanitizer and assertions-on
#                             # builds (tier-1 + fuzz)
#
# Stages:
#   1. tier-1   — release build, full ctest (the ROADMAP gate);
#                 the fuzz-labelled suites are part of tier-1 and run
#                 here too, so this stage alone matches the seed gate.
#   2. fuzz     — ctest -L fuzz: the randomized differential and
#                 property suites, isolated so a CI trajectory can
#                 re-run just them (differential engine comparison,
#                 DBM and priced-zone oracles, plant properties,
#                 bit-state hashing, parser mutation/soup fuzzing).
#   2b. frontend— the .gta compiler pipeline by name: the golden
#                 diagnostic corpus (including the coverage gate that
#                 every DiagCode enumerator is exercised by at least
#                 one corpus file), span/rendering units, the
#                 print->parse->print fixpoint, and lint soundness.
#   3. tsan     — fresh -DSANITIZE=thread build, ctest -L parallel:
#                 every multi-threaded explorer (parallel BFS,
#                 work-stealing DFS) under ThreadSanitizer.
#   4. asan     — fresh -DSANITIZE=address build (ASan + UBSan),
#                 ctest -L fuzz plus the static LU-bound analysis,
#                 optimizer, concretization, DBM unit, golden-count,
#                 memory cut-off and zone-layout suites by
#                 name: the randomized zone workloads drive the
#                 extrapolation operators and the bounds fixpoint
#                 through their edge cases, and partly allocated
#                 ZoneBatch blocks, clock-indexed point completion and
#                 the live-clock slot maps only fail on a bad index
#                 under memory/UB checking.
#   5. store /  — the storage + kernel stage: the perf-smoke gate that
#      kernels    certifies the flat passed store (covered() throughput
#                 vs the legacy map layout), the SIMD roofline gate
#                 (vectorized close/inclusion/batch-scan >= 1.5x the
#                 forced-scalar baseline), the best-first optimizer
#                 gate (match-or-beat binary search in <= 0.8x its
#                 wall time), plus the store unit suites and the
#                 priced-zone / best-first suites re-run under the
#                 ASan and TSan builds from stages 3-4, and the
#                 pre-exploration optimizer gate (identical opt-0/opt-2
#                 verdicts, >= 10% statesExplored cut somewhere) with
#                 its pass suite under ASan.
#   6. robust   — the fault-injection stage: the Monte-Carlo campaign
#                 smoke gate (100% success on a nominal channel, >= 95%
#                 at 5% i.i.d. loss, seed-reproducible trials), the RCX
#                 VM / adversarial-channel / plant-sim suites under the
#                 ASan build, and the parallel campaign runner under
#                 the TSan build.
#   7. replan   — the closed-loop rescheduling stage: the replan
#                 campaign smoke gate (snapshot -> lift -> budgeted
#                 repair search must beat hardened codegen alone on the
#                 burst-loss and crash-restart cells, reproducibly per
#                 seed), a provenance check on the emitted
#                 BENCH_replan_campaign.json (git_rev / hostname /
#                 timestamp must be present and non-empty), and the
#                 snapshot / state-lifting / resume-round-trip suites
#                 plus the nonzero-clock-init engine suite under the
#                 ASan build.
#   8. perfbench— builds the pipeline benchmark (perfbench/, its own
#                 build tree) and runs every workload for one second
#                 with its correctness checks: the benchmark uses public
#                 engine, synthesis and replan names that no other
#                 stage compiles.
#   9. asserts  — fresh build with assertions on (RelWithDebInfo
#                 without -DNDEBUG), every test but the perf-smoke
#                 gates: every other build defines NDEBUG, so this is
#                 the only stage that runs the assert()s in src/.
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

jobs=$(nproc 2>/dev/null || echo 2)

echo "== stage 1: tier-1 (release build + full ctest) =="
# Warnings are errors: the build is warning-free, and stays so.
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== stage 2: fuzz label (randomized suites) =="
ctest --test-dir build --output-on-failure --no-tests=error -L fuzz -j "$jobs"

echo "== stage 2b: frontend golden-diagnostic suite (release) =="
# Also part of the stage-1 full ctest; re-run by name so a frontend
# regression is reported as its own stage. GoldenDiag.CoverageAllCodes
# is the gate that every DiagCode enumerator appears in >= 1 corpus
# file; the ParserFuzz suites carry the fuzz label and additionally run
# under ASan+UBSan in stage 4.
ctest --test-dir build --output-on-failure --no-tests=error -j "$jobs" \
  -R 'GoldenDiag|LexerSpans|DiagnosticSpans|ErrorCap|Rendering|RoundTrip\.|LintSoundness'

echo "== stage 5a: storage-engine perf gates (release) =="
# Also part of the stage-1 full ctest; re-run by name so a storage
# regression is reported as its own stage.
ctest --test-dir build --output-on-failure --no-tests=error \
  -R 'store_micro_smoke'

echo "== stage 5b: SIMD roofline + best-first optimizer gates (release) =="
# Also part of the stage-1 full ctest; re-run by name so a kernel or
# optimizer regression is reported as its own stage. The roofline gate
# self-skips on hardware without a vector path.
ctest --test-dir build --output-on-failure --no-tests=error \
  -R 'dbm_micro_simd_smoke|bestfirst_opt_smoke'

echo "== stage 5e: pre-exploration optimizer gate (release) =="
# Also part of the stage-1 full ctest; re-run by name so an optimizer
# regression is reported as its own stage. The gate requires identical
# verdicts at opt-level 0 and 2 on every workload and a >= 10%
# statesExplored reduction on at least one (the instrumented-Fischer
# dead-store workload).
ctest --test-dir build --output-on-failure --no-tests=error -R 'ir_opt_smoke'

echo "== stage 6a: fault-campaign robustness gate (release) =="
# Also part of the stage-1 full ctest; re-run by name so a robustness
# regression is reported as its own stage.
ctest --test-dir build --output-on-failure --no-tests=error \
  -R 'fault_campaign_smoke'

echo "== stage 7a: closed-loop replanning gate (release) =="
# Also part of the stage-1 full ctest; re-run by name so a replanning
# regression is reported as its own stage. The gate writes
# BENCH_replan_campaign.json at the repo root; CI trajectories diff the
# outcome fields across runs, so the file must say where it came from.
ctest --test-dir build --output-on-failure --no-tests=error \
  -R 'replan_campaign_smoke'
for field in git_rev hostname timestamp; do
  if ! grep -Eq "\"${field}\": \"[^\"]+\"" BENCH_replan_campaign.json; then
    echo "BENCH_replan_campaign.json: provenance field '${field}'" \
         "missing or empty" >&2
    exit 1
  fi
done

echo "== stage 8: pipeline benchmark build + one-second run =="
# Non-zero exit when perfbench fails to build or any workload fails a
# correctness check.
python3 perfbench/run.py --workload all --seconds 1 --trace 0

if [[ "$fast" == 1 ]]; then
  echo "== stages 3-9: sanitizers and assertions-on build skipped (--fast) =="
  exit 0
fi

echo "== stage 3: ThreadSanitizer (parallel label + differential) =="
cmake -B build-tsan -S . -DSANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs"
ctest --test-dir build-tsan --output-on-failure --no-tests=error \
  -L parallel -j "$jobs"
# The differential suite is labelled fuzz (one label per binary — see
# tests/CMakeLists.txt) but exercises every parallel configuration, so
# the TSan pass picks it up by name.
ctest --test-dir build-tsan --output-on-failure --no-tests=error \
  -R 'Differential' -j "$jobs"

echo "== stage 4: AddressSanitizer + UBSan (fuzz label + analysis suites) =="
cmake -B build-asan -S . -DSANITIZE=address >/dev/null
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure --no-tests=error \
  -L fuzz -j "$jobs"
# The optimizer pass suite by name: IR lowering, the pass pipeline's
# expression-pool rewrites, and the digitized-oracle explorations are
# pointer-heavy and belong under memory/UB checking. (The differential
# suite's opt-level configs already run under TSan in stage 3.)
ctest --test-dir build-asan --output-on-failure --no-tests=error \
  -R 'BoundsAnalysis|OptPasses' \
  -j "$jobs"
# Trace concretization (the O(n) per clock point completion and its
# constrain-and-reclose oracle), the validator and the Simulator it
# replays through (with the transition relation they share with the
# engine), and the DBM unit suite (remap's projection) by name.
ctest --test-dir build-asan --output-on-failure --no-tests=error \
  -R 'Concretize|Validate|Dbm\.|Simulator|TransitionRelation' -j "$jobs"
# Zones over live clocks: every successor maps clocks between the
# source's and the target's slots, and a wrong slot only fails under
# memory checking. The golden counts and the memory cut-offs drive that
# arithmetic through all five search loops; the layout suite and the
# projection and expanded-hash properties (also in the fuzz label above)
# pin it directly.
ctest --test-dir build-asan --output-on-failure --no-tests=error \
  -R 'GoldenCounts|MemoryCutoff|ZoneLayout|LiveSubMatrix|ProjectionCommutes|FreshClockReset|FreeClocksMatches|ExpandedHash' \
  -j "$jobs"

echo "== stage 5c: storage engine under the sanitizer builds =="
# The interner's lock-free reads and the flat store's probe loops under
# TSan (store_parallel_test is in -L parallel already; the sequential
# store/interner units are picked up by name), and the zone-arena
# buffer arithmetic under ASan/UBSan.
ctest --test-dir build-tsan --output-on-failure --no-tests=error \
  -R 'Store|Interner' -j "$jobs"
ctest --test-dir build-asan --output-on-failure --no-tests=error \
  -R 'Store|Interner' -j "$jobs"

echo "== stage 5d: priced zones + best-first under the sanitizer builds =="
# The SoA batch's lane arithmetic, the priced-zone cost adjustments,
# and the best-first engine's node recycling under ASan/UBSan (the
# ZoneBatch / PricedOracle / HeuristicProperty fuzz suites are in the
# stage-4 label run already; BestFirst and the hash-invalidation
# regressions are picked up by name), and the forced-dispatch kernels
# under TSan — the dispatch switch and kernel-hit counters are shared
# state every search thread touches.
ctest --test-dir build-asan --output-on-failure --no-tests=error \
  -R 'BestFirst|DbmHash' \
  -j "$jobs"
ctest --test-dir build-tsan --output-on-failure --no-tests=error \
  -R 'ZoneBatch|PricedOracle|BestFirst|HeuristicProperty' -j "$jobs"

echo "== stage 6b: RCX execution-layer suites under ASan/UBSan =="
# The VM (new ops, watchdog halt), the adversarial channel's split
# streams, the plant physics, whole simulated trials, and the event
# loop against its per-tick reference under memory/UB checking.
# (FaultInjection's model-level hazard searches are wall-clock-bounded
# and engine-bound, so they stay in stages 1-2.)
ctest --test-dir build-asan --output-on-failure --no-tests=error \
  -R 'RcxVm|FaultChannel|FaultSim|PhysicsTest|Lifecycle|SimEventLoop|PhysicsEvents|CrashDraws' \
  -j "$jobs"

echo "== stage 6c: parallel campaign runner under TSan =="
# The campaign fans trials out over a std::thread pool; the smoke grid
# under ThreadSanitizer certifies the worker/result handoff.
./build-tsan/bench/fault_campaign --smoke --trials 12

echo "== stage 7b: replanning suites under ASan/UBSan =="
# Snapshot capture/classification, the concrete -> symbolic state lift,
# the crash-restart resume round trips, and the nonzero-clock-init
# engine semantics the lift depends on, all under memory/UB checking.
# (The Lift\. anchor keeps the RCX Lifecycle suite out of this stage.)
ctest --test-dir build-asan --output-on-failure --no-tests=error \
  -R 'SnapshotCapture|SnapshotClassify|Lift\.|RelaxedConfig|ResumeRoundTrip|InitialClocks' \
  -j "$jobs"

echo "== stage 9: assertions on (every test but the perf-smoke gates) =="
# The perf-smoke gates are timing gates; they run on the release build
# in stage 1.
cmake -B build-assert -S . -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  >/dev/null
cmake --build build-assert -j "$jobs"
ctest --test-dir build-assert --output-on-failure --no-tests=error \
  -LE perf-smoke -j "$jobs"

echo "all checks passed"
