// Extension bench: ABFT integrity layer (PR 5) — what end-to-end data
// integrity costs and what it buys.
//
// Three panels, all on the REAL threaded pipeline:
//
//  1. Overhead: the Table-8-analogue throughput bench with the integrity
//     layer off vs on (no faults injected). The kernel invariants (Parseval, column
//     checksums, energy bounds, power-lookup equality) plus the per-frame
//     digests must cost <= 10% throughput — that is the acceptance gate.
//  2. Detection + repair: one seeded single-bit flip into each stage's
//     output across the stream (Doppler, both weight tasks, both
//     beamformers, pulse compression, CFAR). With ABFT on, >= 99% of the
//     injected flips must be detected, every one repaired by the bounded
//     recompute, and the final detection reports bit-identical to the
//     fault-free run. The same plan with ABFT off shows the counterfactual:
//     zero detections of the corruption. A probability sweep reports
//     detection rate vs flip rate.
//  3. Escalation: both executions of one stage corrupted (max_applications
//     = 2) — the policy must hand exactly one ledgered shed to the fault
//     machinery instead of publishing wrong output.
//
// The detection scene is deliberately low dynamic range (CNR 10 dB,
// noise-dominated): the energy invariants compare against whole-line
// energy, so a shrink-direction exponent flip on a value buried 40+ dB
// under a clutter ridge is physically negligible — and correspondingly
// below a relative tolerance. At 10 dB CNR every representable flip is
// above tolerance and the >= 99% bar is meaningful, not vacuous.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>

#include "chaos.hpp"

using namespace ppstap;
using bench::chaos::same_stream;
using bench::chaos::total_detections;
using comm::FaultPlan;

namespace {

// User + system CPU seconds of this process (every rank thread).
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

}  // namespace

int main(int argc, char** argv) {
  bench::report_init("ext_abft", argc, argv);
  int rc = 0;
  const index_t n_cpis = 24;
  const core::NodeAssignment a{{4, 2, 6, 2, 2, 2, 2}};

  // --- panel 1: overhead on the Table-8-analogue scene ----------------------
  bench::print_header("ABFT overhead (Table-8 analogue throughput)");
  auto hs = bench::chaos::host_fixture(/*num_range=*/128, /*num_pulses=*/32,
                                       /*clutter_patches=*/8, /*cnr_db=*/40.0);
  // Heavier CPI than the detection panels: per-CPI kernel work has to
  // dominate the host's fixed per-message scheduling jitter, or the
  // overhead ratio measures the scheduler instead of the checks.
  hs.p.num_range = 256;
  hs.p.num_pulses = 64;
  hs.p.validate();
  hs.sp.num_range = hs.p.num_range;
  hs.sp.num_pulses = hs.p.num_pulses;
  const bench::chaos::Runner heavy(std::move(hs));
  const index_t oh_cpis = 48;
  auto run_once = [&](bool abft) {
    auto pipe = heavy.pipeline(a.nodes);
    core::IntegrityConfig ic;
    ic.enabled = abft;
    pipe.set_integrity(ic);
    return pipe.run(heavy.scene(), oh_cpis, 2, 2);
  };
  // The pipeline oversubscribes the host, so a single run is dominated by
  // scheduler noise. Interleave the arms (so a load burst hits both the
  // same way) and keep the best of five runs each: on a saturated machine
  // the best run converges to the total-work lower bound, which is what
  // the overhead gate is meant to compare.
  // Beside the gated throughput, the same runs price the checks in CPU:
  // process CPU seconds of the ABFT-on runs over those of the ABFT-off
  // runs, pooled over the five pairs (livebench's obs.trace_overhead_frac
  // estimator). Receives block rather than spin, so this is the checks'
  // work, including what idle cores absorb without costing throughput.
  // Reported, not gated.
  core::PipelineResult r_off, r_on;
  double best_off = 0.0, best_on = 0.0, cpu_off = 0.0, cpu_on = 0.0;
  auto timed_run = [&](bool abft, double& cpu) {
    const double cpu0 = process_cpu_seconds();
    auto r = run_once(abft);
    cpu += process_cpu_seconds() - cpu0;
    return r;
  };
  for (int rep = 0; rep < 5; ++rep) {
    auto off = timed_run(false, cpu_off);
    if (off.throughput >= best_off) {
      best_off = off.throughput;
      r_off = std::move(off);
    }
    auto on = timed_run(true, cpu_on);
    if (on.throughput >= best_on) {
      best_on = on.throughput;
      r_on = std::move(on);
    }
  }
  const double overhead = 1.0 - r_on.throughput / r_off.throughput;
  const double cpu_overhead = cpu_on / cpu_off - 1.0;
  std::printf("ABFT off: %8.2f CPI/s   ABFT on: %8.2f CPI/s   overhead "
              "%+.1f%% (gate: <= 10%%)\n",
              r_off.throughput, r_on.throughput, 100.0 * overhead);
  std::printf("CPU: off %.3f s, on %.3f s over 5 pairs: %+.1f%% (reported, "
              "not gated)\n",
              cpu_off, cpu_on, 100.0 * cpu_overhead);
  const std::uint64_t passed = r_on.events.count(core::EventKind::kCheckPassed);
  const std::uint64_t digests =
      r_on.events.count(core::EventKind::kDigestMismatch);
  std::printf("clean run ledger: %llu checks passed, %llu failed, %llu "
              "digest mismatches\n",
              static_cast<unsigned long long>(passed),
              static_cast<unsigned long long>(r_on.integrity.checks_failed),
              static_cast<unsigned long long>(digests));
  std::printf("per-task recv/comp/send seconds (off -> on):\n");
  for (int t = 0; t < stap::kNumTasks; ++t) {
    const auto& a = r_off.timing[static_cast<size_t>(t)];
    const auto& b = r_on.timing[static_cast<size_t>(t)];
    std::printf(
        "  %-20s recv %.5f->%.5f  comp %.5f->%.5f  send %.5f->%.5f\n",
        stap::task_name(static_cast<stap::Task>(t)), a.recv, b.recv, a.comp,
        b.comp, a.send, b.send);
  }
  if (overhead > 0.10) {
    std::printf("FAIL: ABFT overhead above 10%%\n");
    rc = 1;
  }
  if (!r_on.integrity.clean() || digests > 0 ||
      !same_stream(r_on.detections, r_off.detections)) {
    std::printf("FAIL: clean ABFT run not clean / not bit-identical\n");
    rc = 1;
  }
  bench::report_row(
      bench::row({{"kind", "overhead"},
                  {"throughput_off_cpi_per_s", r_off.throughput},
                  {"throughput_on_cpi_per_s", r_on.throughput},
                  {"overhead_fraction", overhead},
                  {"cpu_overhead_fraction", cpu_overhead},
                  {"checks_passed", passed},
                  {"checks_failed", r_on.integrity.checks_failed}}));

  // --- panel 2: detection + bit-exact repair --------------------------------
  bench::print_header("Flip detection and repair (CNR 10 dB scene)");
  bench::chaos::Runner detect(bench::chaos::host_fixture(
      /*num_range=*/128, /*num_pulses=*/32, /*clutter_patches=*/8,
      /*cnr_db=*/10.0));
  // Fault-free reference for the bit-exactness check.
  const core::PipelineResult& ref = detect.reference(a.nodes, n_cpis).r;
  auto run_flips = [&](FaultPlan& plan, bool abft) {
    auto pipe = detect.pipeline(a.nodes);
    core::IntegrityConfig ic;
    ic.enabled = abft;
    pipe.set_integrity(ic);
    pipe.set_fault_plan(&plan);
    return pipe.run(detect.scene(), n_cpis, 2, 2);
  };

  // One single-shot flip per (CPI, stage), stages round-robin over all
  // seven tasks; the recompute runs clean, so every flip must be repaired.
  auto add_single_shot = [&](FaultPlan& plan) {
    for (index_t cpi = 4; cpi < 20; ++cpi)
      plan.add_compute(FaultPlan::flip_stage(
          static_cast<int>(cpi % stap::kNumTasks), cpi));
  };

  {  // ABFT off: the same corruption passes silently.
    FaultPlan plan(/*seed=*/19);
    add_single_shot(plan);
    auto r = run_flips(plan, /*abft=*/false);
    std::printf("ABFT off: %llu flips injected, %llu detected — silent "
                "corruption (%zu detections vs %zu fault-free)\n",
                static_cast<unsigned long long>(plan.stats().flips),
                static_cast<unsigned long long>(r.integrity.checks_failed),
                total_detections(r), total_detections(ref));
    bench::report_row(
        bench::row({{"kind", "silent_corruption"},
                    {"flips", plan.stats().flips},
                    {"detected", r.integrity.checks_failed}}));
  }

  {  // ABFT on: >= 99% detected, all repaired, output bit-exact.
    FaultPlan plan(/*seed=*/19);
    add_single_shot(plan);
    auto r = run_flips(plan, /*abft=*/true);
    const auto flips = plan.stats().flips;
    const double rate =
        flips > 0 ? static_cast<double>(r.integrity.checks_failed) /
                        static_cast<double>(flips)
                  : 1.0;
    const bool exact = same_stream(r.detections, ref.detections);
    std::printf("ABFT on:  %llu flips, %llu detected (rate %.3f), %llu "
                "repaired, %llu escalated, bit-exact output: %s\n",
                static_cast<unsigned long long>(flips),
                static_cast<unsigned long long>(r.integrity.checks_failed),
                rate, static_cast<unsigned long long>(r.integrity.repairs),
                static_cast<unsigned long long>(r.integrity.escalations),
                exact ? "yes" : "NO");
    if (flips == 0 || rate < 0.99) {
      std::printf("FAIL: detection rate below 0.99\n");
      rc = 1;
    }
    if (r.integrity.repairs != r.integrity.checks_failed || !exact) {
      std::printf("FAIL: single-shot flips must all repair bit-exact\n");
      rc = 1;
    }
    bench::report_row(bench::row({{"kind", "single_shot"},
                                  {"flips", flips},
                                  {"detected", r.integrity.checks_failed},
                                  {"detection_rate", rate},
                                  {"repairs", r.integrity.repairs},
                                  {"escalations", r.integrity.escalations},
                                  {"bit_exact", exact ? 1 : 0}}));
  }

  // Detection rate vs flip rate: every stage execution coin-flips.
  std::printf("\n%-10s %8s %10s %10s %12s %12s\n", "flip rate", "flips",
              "detected", "rate", "repairs", "escalations");
  for (const double prob : {0.05, 0.20}) {
    FaultPlan plan(/*seed=*/23);
    comm::ComputeFaultRule rule;
    rule.task = -1;
    rule.cpi = -1;
    rule.probability = prob;
    rule.max_applications = -1;
    plan.add_compute(rule);
    auto r = run_flips(plan, /*abft=*/true);
    const auto flips = plan.stats().flips;
    const double rate =
        flips > 0 ? static_cast<double>(r.integrity.checks_failed) /
                        static_cast<double>(flips)
                  : 1.0;
    std::printf("%-10.2f %8llu %10llu %10.3f %12llu %12llu\n", prob,
                static_cast<unsigned long long>(flips),
                static_cast<unsigned long long>(r.integrity.checks_failed),
                rate, static_cast<unsigned long long>(r.integrity.repairs),
                static_cast<unsigned long long>(r.integrity.escalations));
    if (flips > 0 && rate < 0.99) {
      std::printf("FAIL: detection rate below 0.99 at flip rate %.2f\n",
                  prob);
      rc = 1;
    }
    bench::report_row(bench::row({{"kind", "rate_sweep"},
                                  {"flip_probability", prob},
                                  {"flips", flips},
                                  {"detected", r.integrity.checks_failed},
                                  {"detection_rate", rate},
                                  {"repairs", r.integrity.repairs},
                                  {"escalations", r.integrity.escalations}}));
  }

  // --- panel 3: persistent corruption escalates to one ledgered shed -------
  // Both flips are pinned to one Doppler rank, so they hit its execution
  // and its recompute; unpinned, they could land on two of the four
  // Doppler ranks' first executions, and each would simply be repaired.
  {
    FaultPlan plan(/*seed=*/31);
    auto persistent = FaultPlan::flip_stage(
        static_cast<int>(stap::Task::kDopplerFilter), /*cpi=*/10, /*bit=*/30,
        /*max_applications=*/2);
    persistent.rank = a.first_rank(stap::Task::kDopplerFilter);
    plan.add_compute(persistent);
    auto r = run_flips(plan, /*abft=*/true);
    const bool shed10 = std::find(r.faults.shed_cpis.begin(),
                                  r.faults.shed_cpis.end(),
                                  static_cast<index_t>(10)) !=
                        r.faults.shed_cpis.end();
    std::printf("\npersistent Doppler corruption at CPI 10: %llu "
                "escalation(s), shed CPIs: %zu (CPI 10 shed: %s)\n",
                static_cast<unsigned long long>(r.integrity.escalations),
                r.faults.shed_cpis.size(), shed10 ? "yes" : "NO");
    if (r.integrity.escalations != 1 || !shed10) {
      std::printf("FAIL: persistent corruption must yield exactly one "
                  "ledgered escalation\n");
      rc = 1;
    }
    bench::report_row(bench::row({{"kind", "escalation"},
                                  {"escalations", r.integrity.escalations},
                                  {"shed_cpis", r.faults.shed_cpis.size()},
                                  {"cpi10_shed", shed10 ? 1 : 0}}));
  }

  std::printf(
      "\nReading: the invariants ride the kernels for a bounded throughput\n"
      "tax; a transient flip costs one recompute and leaves the output\n"
      "bit-identical; persistent corruption is refused — converted into the\n"
      "same accounted shed a transport loss would produce, never published.\n");
  return bench::report_finish(rc);
}
