// Extension bench: ABFT integrity layer (PR 5) — what end-to-end data
// integrity costs and what it buys.
//
// Three panels, all on the REAL threaded pipeline:
//
//  1. Overhead: the Table-8-analogue throughput bench with PPSTAP_ABFT off
//     vs on (no faults injected). The kernel invariants (Parseval, column
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
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "comm/fault.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "synth/steering.hpp"

using namespace ppstap;
using comm::FaultPlan;

namespace {

struct Setup {
  stap::StapParams p;
  synth::ScenarioParams sp;
  core::NodeAssignment a{{4, 2, 6, 2, 2, 2, 2}};

  static Setup make(double cnr_db) {
    Setup s;
    s.p.num_range = 128;
    s.p.num_channels = 8;
    s.p.num_pulses = 32;
    s.p.num_beams = 2;
    s.p.num_hard = 12;
    s.p.stagger = 2;
    s.p.num_segments = 3;
    s.p.easy_samples_per_cpi = 24;
    s.p.hard_samples_per_segment = 16;
    s.p.cfar_ref = 6;
    s.p.cfar_guard = 2;
    s.p.validate();
    s.sp.num_range = s.p.num_range;
    s.sp.num_channels = s.p.num_channels;
    s.sp.num_pulses = s.p.num_pulses;
    s.sp.clutter.num_patches = 8;
    s.sp.clutter.cnr_db = cnr_db;
    s.sp.chirp_length = 16;
    s.sp.targets.push_back(synth::Target{45, 10.0 / 32.0, 0.0, 12.0});
    return s;
  }
};

bool same_detections(const std::vector<std::vector<stap::Detection>>& a,
                     const std::vector<std::vector<stap::Detection>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      const auto& x = a[i][j];
      const auto& y = b[i][j];
      if (x.doppler_bin != y.doppler_bin || x.beam != y.beam ||
          x.range != y.range || x.power != y.power ||
          x.threshold != y.threshold)
        return false;
    }
  }
  return true;
}

size_t count_dets(const core::PipelineResult& r) {
  size_t n = 0;
  for (const auto& d : r.detections) n += d.size();
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  bench::report_init("ext_abft", argc, argv);
  int rc = 0;
  const index_t n_cpis = 24;

  // --- panel 1: overhead on the Table-8-analogue scene ----------------------
  bench::print_header("ABFT overhead (Table-8 analogue throughput)");
  auto hs = Setup::make(/*cnr_db=*/40.0);
  // Heavier CPI than the detection panels: per-CPI kernel work has to
  // dominate the host's fixed per-message scheduling jitter, or the
  // overhead ratio measures the scheduler instead of the checks.
  hs.p.num_range = 256;
  hs.p.num_pulses = 64;
  hs.p.validate();
  hs.sp.num_range = hs.p.num_range;
  hs.sp.num_pulses = hs.p.num_pulses;
  synth::ScenarioGenerator hgen(hs.sp);
  auto hsteer = synth::steering_matrix(hs.p.num_channels, hs.p.num_beams,
                                       hs.p.beam_center_rad,
                                       hs.p.beam_span_rad);
  const std::vector<cfloat> hreplica{hgen.replica().begin(),
                                     hgen.replica().end()};
  const index_t oh_cpis = 48;
  auto run_once = [&](bool abft) {
    core::ParallelStapPipeline pipe(hs.p, hs.a, hsteer, hreplica);
    core::IntegrityConfig ic;
    ic.enabled = abft;
    pipe.set_integrity(ic);
    return pipe.run(hgen, oh_cpis, 2, 2);
  };
  // The pipeline oversubscribes the host, so a single run is dominated by
  // scheduler noise. Interleave the arms (so a load burst hits both the
  // same way) and keep the best of five runs each: on a saturated machine
  // the best run converges to the total-work lower bound, which is what
  // the overhead gate is meant to compare.
  core::PipelineResult r_off, r_on;
  double best_off = 0.0, best_on = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    auto off = run_once(false);
    if (off.throughput >= best_off) {
      best_off = off.throughput;
      r_off = std::move(off);
    }
    auto on = run_once(true);
    if (on.throughput >= best_on) {
      best_on = on.throughput;
      r_on = std::move(on);
    }
  }
  const double overhead = 1.0 - r_on.throughput / r_off.throughput;
  std::printf("ABFT off: %8.2f CPI/s   ABFT on: %8.2f CPI/s   overhead "
              "%+.1f%% (gate: <= 10%%)\n",
              r_off.throughput, r_on.throughput, 100.0 * overhead);
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
      !same_detections(r_on.detections, r_off.detections)) {
    std::printf("FAIL: clean ABFT run not clean / not bit-identical\n");
    rc = 1;
  }
  bench::report_row(
      bench::row({{"kind", "overhead"},
                  {"throughput_off_cpi_per_s", r_off.throughput},
                  {"throughput_on_cpi_per_s", r_on.throughput},
                  {"overhead_fraction", overhead},
                  {"checks_passed", passed},
                  {"checks_failed", r_on.integrity.checks_failed}}));

  // --- panel 2: detection + bit-exact repair --------------------------------
  bench::print_header("Flip detection and repair (CNR 10 dB scene)");
  auto ds = Setup::make(/*cnr_db=*/10.0);
  synth::ScenarioGenerator dgen(ds.sp);
  auto dsteer = synth::steering_matrix(ds.p.num_channels, ds.p.num_beams,
                                       ds.p.beam_center_rad,
                                       ds.p.beam_span_rad);
  const std::vector<cfloat> dreplica{dgen.replica().begin(),
                                     dgen.replica().end()};
  auto make_detect_pipe = [&] {
    return core::ParallelStapPipeline(ds.p, ds.a, dsteer, dreplica);
  };
  // Fault-free reference for the bit-exactness check.
  auto ref = make_detect_pipe().run(dgen, n_cpis, 2, 2);

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
    auto pipe = make_detect_pipe();
    core::IntegrityConfig ic;
    ic.enabled = false;
    pipe.set_integrity(ic);
    pipe.set_fault_plan(&plan);
    auto r = pipe.run(dgen, n_cpis, 2, 2);
    std::printf("ABFT off: %llu flips injected, %llu detected — silent "
                "corruption (%zu detections vs %zu fault-free)\n",
                static_cast<unsigned long long>(plan.stats().flips),
                static_cast<unsigned long long>(r.integrity.checks_failed),
                count_dets(r), count_dets(ref));
    bench::report_row(
        bench::row({{"kind", "silent_corruption"},
                    {"flips", plan.stats().flips},
                    {"detected", r.integrity.checks_failed}}));
  }

  {  // ABFT on: >= 99% detected, all repaired, output bit-exact.
    FaultPlan plan(/*seed=*/19);
    add_single_shot(plan);
    auto pipe = make_detect_pipe();
    core::IntegrityConfig ic;
    ic.enabled = true;
    pipe.set_integrity(ic);
    pipe.set_fault_plan(&plan);
    auto r = pipe.run(dgen, n_cpis, 2, 2);
    const auto flips = plan.stats().flips;
    const double rate =
        flips > 0 ? static_cast<double>(r.integrity.checks_failed) /
                        static_cast<double>(flips)
                  : 1.0;
    const bool exact = same_detections(r.detections, ref.detections);
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
    auto pipe = make_detect_pipe();
    core::IntegrityConfig ic;
    ic.enabled = true;
    pipe.set_integrity(ic);
    pipe.set_fault_plan(&plan);
    auto r = pipe.run(dgen, n_cpis, 2, 2);
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
    persistent.rank = ds.a.first_rank(stap::Task::kDopplerFilter);
    plan.add_compute(persistent);
    auto pipe = make_detect_pipe();
    core::IntegrityConfig ic;
    ic.enabled = true;
    pipe.set_integrity(ic);
    pipe.set_fault_plan(&plan);
    auto r = pipe.run(dgen, n_cpis, 2, 2);
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
