#!/usr/bin/env bash
# Tier-1 verification plus the observability checks:
#
#   1. Environment guard, then configure, build, and run the full test
#      suite (ROADMAP tier-1). The guard fails if any file under src/ or
#      bench/ other than obs/trace.cpp, kernels/dispatch.cpp and
#      common/env.* calls getenv or a parse_env_ helper: only the
#      kernel-dispatch and tracing knobs live in the environment, and a
#      pipeline run or a bench is configured through setters and flags.
#  1b. Kernel dispatch A/B: the kernels suite and the stap weights tests
#      forced to scalar (the portable numerical contract, must pass on any
#      host), forced to AVX2 where the CPU has it (skipped gracefully
#      otherwise), then
#      micro_kernels writes BENCH_kernels.json — its exit code asserts the
#      >= 2x geomean kernel speedup, >= 2x on each of qr_factor and
#      qr_append, and the >= 1.3x pipeline-analogue gate.
#  1c. Build-both-ways check: -DPPSTAP_ENABLE_AVX2=OFF must still compile
#      and pass the kernel, dsp, common and synth suites with dispatch
#      resolved to scalar — the scalar noise sampler and the scalar golden
#      scene checksums run where the AVX2 translation units are absent.
#   2. Seed the machine-readable benchmark baseline: table 8 with --json
#      writes BENCH_table8.json, with the causal flow tracer armed
#      (PPSTAP_TRACE=1) so the run also exports trace_table8.json for the
#      analyzer stage below. The bench itself asserts the Table-9/10
#      bottleneck verdicts, the <= 5% piggyback-overhead budget, and the
#      >= 95% stitched-chain latency coverage.
#   3. Build-both-ways check: the tree must also compile and pass the
#      obs-labelled tests with -DPPSTAP_ENABLE_TRACING=OFF, proving the
#      no-op stub API stays in sync with the real one.
#   4. ThreadSanitizer job: the comm runtime, the pipeline correctness
#      tests, the fault-tolerance suite (kill/failover, deadline
#      shedding, retransmission), and the checkpoint/resume, overload
#      (degradation rungs) and integrity (ABFT recompute) suites that
#      exercise the stage driver's exits run under -fsanitize=thread — the
#      fault paths cross threads at every step (death notification, spare
#      take-over, mailbox discard), so a data race there is a correctness
#      bug even when the race-free interleaving happens to pass. The synth
#      suite joins them: generate() runs on the front end's producer thread
#      and inline on rank threads at once, sharing const state and
#      per-thread scratch.
#   5. ASan+UBSan job: the comm/core/fault/elastic/overload/kernels/stap/
#      synth-labelled suites under -fsanitize=address,undefined; every
#      test those labels select is in the stage's build target list, so
#      the stage passes from an empty build directory. The recovery paths
#      (spare takeover through the ordinary role entry, checkpoint
#      restore, shrink and migration votes) run in the fault suites
#      (fault tolerance, checkpoint) and the elastic suite. The overload
#      paths hand frames across degraded/shed boundaries and retry solves
#      on conditioning failures — exactly where a stale pointer or signed
#      overflow would hide; the kernel suite's blocked/tail paths are where
#      a vector remainder overrun would, the stap suite's in-place Doppler
#      row view and range-major pack index math are where a slab overrun
#      would, and the synth suite's chirp column groups and the noise
#      sampler's vector tails are where an overrun would.
#   6. Overload bench: ext_overload sweeps offered load vs policy and
#      writes BENCH_overload.json; its exit code asserts the degradation
#      ladder beats shed-only admission at 2x load.
#  6b. Fault-tolerance bench: ext_fault_tolerance's delay sweep,
#      corruption sweep and spare failover run through the chaos harness
#      (bench/chaos.hpp); its exit code asserts the harness invariants on
#      every run (no lost CPI, recorded sheds, one heal per kill, bitwise
#      output apart from sheds). Gated on the exit code only: its numbers
#      have no committed baseline.
#   7. ABFT job: the abft-labelled integrity suite (clean-run invariant
#      pass + per-stage injected-flip detection) reruns under the ASan
#      build — recompute-and-swap is exactly where a dangling buffer would
#      hide — and ext_abft writes BENCH_abft.json; its exit code asserts
#      >= 99% flip detection, bit-exact repair, and <= 10% throughput
#      overhead with the checks on.
#   8. Elastic migration job: the elastic-labelled suite (transactional
#      commit/rollback, chaos kills inside the migration window, overload
#      assist) reruns under the TSan build — the 2PC vote/verdict exchange
#      and the epoch publish cross every rank thread at the barrier, so a
#      race there wedges or corrupts a live migration — and ext_elastic
#      writes BENCH_elastic.json; its exit code asserts the >= 5%
#      steady-state throughput gain (live where cores allow, else the sim
#      prediction for the identical plan), the <= 2x-sim-transient stall,
#      and 20+ chaos scenarios, run through the chaos harness, all ending
#      commit-or-clean-rollback with bit-exact surviving CPIs.
#   9. Survivability job: the ext_survivability smoke subset (spare
#      takeovers of every role, correlated kills, a mid-migration kill, a
#      shrink, an expected-exhaustion case) reruns under the TSan build —
#      death notification, mailbox takeover, and the shrink commit cross
#      every thread, and the smoke run covers the chaos harness (runner,
#      reference cache, invariant check) too — then the full 34-scenario
#      soak runs on the Release build and writes BENCH_survivability.json;
#      its exit code asserts the harness invariants in every scenario (zero
#      lost/duplicated CPIs, one heal per kill, the expected healing
#      mechanism with bounded MTTR, uncovered entries only where pool
#      exhaustion is the scenario's point, bitwise or tolerance-checked
#      output) and post-shrink throughput within 10% of the
#      reduced-topology prediction.
#  10. Gray-failure job: test_health (detector state machine, e2e
#      quarantine) and the ext_grayfail smoke subset rerun under the TSan
#      build — the monitor's observe/scan/quarantine-flag handshake crosses
#      every rank thread per CPI, and the smoke run exercises the chaos
#      harness on this fixture — then the full chaos suite (slowdown
#      sweep, containment ON/OFF, flaky link, duplicate storm) runs on the
#      Release build and writes BENCH_grayfail.json; its exit code asserts
#      the harness invariants under every injection (zero lost/duplicated
#      CPIs, every duplicate discarded, every CPI bitwise equal to the
#      clean baseline), containment
#      recovering >= 90% of the clean baseline pace under a persistent
#      straggler, and zero false quarantines on clean runs.
#  11. Live-pipeline benchmark smoke: builds livebench/ (its own
#      standalone CMake project over src/ and tools/) and runs its
#      bench_e2e_smoke ctest (label bench): the guarded workload end to end,
#      untraced and traced, every declared metric emitted and finite, no
#      failed CPI, and an analyzer verdict on its trace. No timing gate.
#  12. Analyzer + regression gate: ppstap-analyze must reach a valid
#      bottleneck verdict on the traced table-8 export, name the same
#      gating group Table 9 does (Doppler), see zero dropped spans, and —
#      via --assert-no-stragglers — score every rank's service floor
#      against its task-group peers and find no gray failure on the clean
#      run; bench_compare.py first proves it can reject injected
#      regressions (--self-test), then diffs the fresh BENCH_*.json
#      documents against the committed bench/baselines/ with noise
#      tolerances.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== env guard: only kernel dispatch and tracing read the environment ==="
stray_env=$(grep -rlE '\bgetenv\b|\bparse_env_' src bench |
  grep -vxE 'src/(obs/trace\.cpp|kernels/dispatch\.cpp|common/env\.(hpp|cpp))' ||
  true)
if [ -n "$stray_env" ]; then
  echo "environment read outside the allowed files:" >&2
  echo "$stray_env" >&2
  exit 1
fi

echo "=== tier-1: build + ctest (tracing ON) ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== kernels: SIMD dispatch A/B + roofline gates (BENCH_kernels.json) ==="
# The portable path is the numerical contract: the kernel suite and the
# stap weights tests must pass with dispatch forced to scalar on every
# host. The forced-AVX2 run proves the vector path against the same oracles
# wherever the CPU has it; on a host without AVX2+FMA it is skipped
# (PPSTAP_SIMD=avx2 would throw, by design). The weights tests include the
# batched solves' cross-level check (scalar and AVX2 weights bitwise equal)
# and their dense-double/SINR oracles, so both run at each forced level;
# the ASan+UBSan job below runs the kernels and stap labels too, covering
# the lane-group tails (ragged groups, one to nine units). micro_kernels then asserts the >= 2x geomean kernel speedup, the
# >= 2x QR factor/append speedups and the >= 1.3x pipeline-analogue gate in
# its exit code, and bench_compare
# diffs the roofline numbers at the end (skipping automatically when the
# baseline's simd level differs from this host's).
PPSTAP_SIMD=scalar ./build/tests/test_kernels
PPSTAP_SIMD=scalar ./build/tests/test_stap --gtest_filter='Weights.*'
if grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo; then
  PPSTAP_SIMD=avx2 ./build/tests/test_kernels
  PPSTAP_SIMD=avx2 ./build/tests/test_stap --gtest_filter='Weights.*'
else
  echo "kernels: host lacks AVX2+FMA — forced-AVX2 run skipped"
fi
./build/bench/micro_kernels --json BENCH_kernels.json

echo "=== build-both-ways: PPSTAP_ENABLE_AVX2=OFF ==="
# The AVX2 translation units are optional by build flag, not only by
# runtime dispatch: a build without them must still compile and pass the
# kernel, dsp, common and synth suites (dispatch resolves to scalar and
# reports compiled_avx2=0; the scalar sampler and golden scenes run).
cmake -B build-noavx2 -S . -DCMAKE_BUILD_TYPE=Release \
      -DPPSTAP_ENABLE_AVX2=OFF
cmake --build build-noavx2 -j "$JOBS" \
      --target test_kernels test_dsp test_common test_synth
ctest --test-dir build-noavx2 --output-on-failure -j "$JOBS" \
      -R '^(test_kernels|test_dsp|test_common|test_synth)$'

echo "=== bench baseline: BENCH_table8.json (traced) ==="
PPSTAP_TRACE=1 PPSTAP_TRACE_FILE=trace_table8.json \
  ./build/bench/table8_throughput_latency --json BENCH_table8.json

echo "=== build-both-ways: PPSTAP_ENABLE_TRACING=OFF ==="
cmake -B build-notrace -S . -DCMAKE_BUILD_TYPE=Release \
      -DPPSTAP_ENABLE_TRACING=OFF
cmake --build build-notrace -j "$JOBS"
ctest --test-dir build-notrace -L obs --output-on-failure -j "$JOBS"

echo "=== TSan: comm + core + fault tolerance + elastic migration + stage driver + synth + event log ==="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j "$JOBS" \
      --target test_comm test_core test_fault_tolerance \
               test_elastic test_checkpoint test_overload test_integrity \
               test_synth test_events
TSAN_OPTIONS="halt_on_error=1" \
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
      -R '^(test_comm|test_core|test_fault_tolerance|test_elastic|test_checkpoint|test_overload|test_integrity|test_synth|test_events)$'

echo "=== ASan+UBSan: comm + core + fault + elastic + overload + kernels + stap + synth ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build build-asan -j "$JOBS" \
      --target test_comm test_core test_sim \
               test_pipeline_properties test_beam_cycling test_events \
               test_fault_tolerance test_checkpoint test_elastic \
               test_overload test_kernels test_stap test_synth
ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
      -L 'comm|core|fault|elastic|overload|kernels|stap|synth'

echo "=== bench: overload ladder vs shed-only (BENCH_overload.json) ==="
./build/bench/ext_overload --json BENCH_overload.json

echo "=== fault tolerance: chaos-harness invariants (exit code only) ==="
./build/bench/ext_fault_tolerance

echo "=== ABFT: integrity suite under ASan + BENCH_abft.json ==="
cmake --build build-asan -j "$JOBS" --target test_integrity
ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L abft
./build/bench/ext_abft --json BENCH_abft.json

echo "=== elastic: live migration gates + chaos (BENCH_elastic.json) ==="
./build/bench/ext_elastic --json BENCH_elastic.json

echo "=== survivability: TSan smoke + full soak (BENCH_survivability.json) ==="
cmake --build build-tsan -j "$JOBS" --target ext_survivability
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/bench/ext_survivability --smoke
./build/bench/ext_survivability --json BENCH_survivability.json

echo "=== gray-failure: TSan detector smoke + chaos suite (BENCH_grayfail.json) ==="
cmake --build build-tsan -j "$JOBS" --target test_health ext_grayfail
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_health
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/bench/ext_grayfail --smoke
./build/bench/ext_grayfail --json BENCH_grayfail.json

echo "=== livebench: build + bench_e2e_smoke (ctest -L bench) ==="
cmake -S livebench -B .bench_build/livebench -DCMAKE_BUILD_TYPE=Release
cmake --build .bench_build/livebench -j "$JOBS"
ctest --test-dir .bench_build/livebench -L bench --output-on-failure

echo "=== analyzer verdict + perf regression gate ==="
./build/tools/ppstap-analyze trace_table8.json \
  --assert-verdict --assert-no-drops \
  --expect-gating "Doppler filter processing" \
  --per-rank-health --assert-no-stragglers
python3 scripts/bench_compare.py --self-test
python3 scripts/bench_compare.py bench/baselines/BENCH_table8.json BENCH_table8.json
python3 scripts/bench_compare.py bench/baselines/BENCH_overload.json BENCH_overload.json
python3 scripts/bench_compare.py bench/baselines/BENCH_abft.json BENCH_abft.json
python3 scripts/bench_compare.py bench/baselines/BENCH_elastic.json BENCH_elastic.json
python3 scripts/bench_compare.py bench/baselines/BENCH_survivability.json BENCH_survivability.json
python3 scripts/bench_compare.py bench/baselines/BENCH_kernels.json BENCH_kernels.json
python3 scripts/bench_compare.py bench/baselines/BENCH_grayfail.json BENCH_grayfail.json

echo "ci.sh: all checks passed"
