// Extension bench: fault tolerance of the pipelined STAP runtime (the
// flight-worthiness dimension the paper leaves implicit — a radar that
// "must provide the ability to continuously process data" also has to keep
// streaming when a link misbehaves or a node dies).
//
// Three panels, all on the REAL threaded pipeline (host-pipeline scale,
// Table-8 analogue as the fault-free baseline):
//
//  1. Frame-delay sweep with deadline shedding on: delay an increasing
//     fraction of Doppler->beamform frames past the CPI deadline and report
//     throughput + shed CPIs per rate. The expected shape: throughput
//     degrades by roughly the shed fraction, never collapses, and every
//     lost CPI is accounted in the ledger.
//  2. Corruption sweep: corrupted frames are repaired by checksum +
//     retransmission; detections stay exact and throughput barely moves.
//  3. Spare-rank failover: kill a weight rank mid-stream and report the
//     measured recovery stall next to the machine model's predicted
//     migration stall (ReallocationPlan::migration_stall — the same
//     weight-state move, there planned, here survived).
#include <cstdio>

#include "bench_util.hpp"
#include "comm/fault.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "synth/steering.hpp"

using namespace ppstap;
using comm::FaultPlan;

namespace {

// Pipeline tag layout (pipeline.cpp): tag = cpi * stride + edge.
constexpr int kTagStride = 16;
constexpr int kEdgeDopToEasyBf = 2;
constexpr int kEdgeDopToHardWt = 1;

struct Setup {
  stap::StapParams p;
  synth::ScenarioParams sp;
  core::NodeAssignment a{{4, 2, 6, 2, 2, 2, 2}};

  static Setup make() {
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
    s.sp.clutter.num_patches = 12;
    s.sp.clutter.cnr_db = 40.0;
    s.sp.chirp_length = 16;
    s.sp.targets.push_back(synth::Target{45, 10.0 / 32.0, 0.0, 12.0});
    return s;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::report_init("ext_fault_tolerance", argc, argv);
  auto setup = Setup::make();
  synth::ScenarioGenerator gen(setup.sp);
  auto steering = synth::steering_matrix(
      setup.p.num_channels, setup.p.num_beams, setup.p.beam_center_rad,
      setup.p.beam_span_rad);
  const std::vector<cfloat> replica{gen.replica().begin(),
                                    gen.replica().end()};
  const index_t n_cpis = 24;

  auto make_pipeline = [&] {
    return core::ParallelStapPipeline(setup.p, setup.a, steering, replica);
  };

  // --- fault-free baseline (Table-8 analogue on this host) -----------------
  bench::print_header("Fault tolerance on the host pipeline");
  auto base = make_pipeline();
  const double w0 = WallTimer::now();
  auto r0 = base.run(gen, n_cpis, 2, 2);
  const double baseline_wall = WallTimer::now() - w0;
  const double period = baseline_wall / static_cast<double>(n_cpis);
  const double deadline = std::max(5.0 * period, 0.05);
  size_t base_dets = 0;
  for (const auto& d : r0.detections) base_dets += d.size();
  std::printf("fault-free baseline: %.2f CPI/s, %.4f s latency, %zu "
              "detections (deadline calibrated to %.3f s)\n",
              r0.throughput, r0.latency, base_dets, deadline);
  bench::report_row(bench::row({{"kind", "baseline"},
                                {"throughput_cpi_per_s", r0.throughput},
                                {"latency_s", r0.latency},
                                {"detections", base_dets},
                                {"deadline_s", deadline}}));

  // --- panel 1: delay sweep with deadline shedding -------------------------
  std::printf("\n%-12s %12s %10s %10s %12s\n", "delay prob", "throughput",
              "vs base", "shed CPIs", "detections");
  for (const double prob : {0.0, 0.05, 0.15, 0.30}) {
    FaultPlan plan(/*seed=*/42);
    auto rule = FaultPlan::delay_edge(kEdgeDopToEasyBf, kTagStride,
                                     3.0 * deadline, prob);
    plan.add(rule);
    auto pipe = make_pipeline();
    core::FaultToleranceConfig ft;
    ft.shedding = true;
    ft.cpi_deadline_seconds = deadline;
    pipe.set_fault_tolerance(ft);
    pipe.set_fault_plan(&plan);
    auto r = pipe.run(gen, n_cpis, 2, 2);
    size_t dets = 0;
    for (const auto& d : r.detections) dets += d.size();
    std::printf("%-12.2f %9.2f /s %9.1f%% %10zu %12zu\n", prob,
                r.throughput, 100.0 * r.throughput / r0.throughput,
                r.faults.shed_cpis.size(), dets);
    bench::report_row(
        bench::row({{"kind", "delay_sweep"},
                    {"delay_probability", prob},
                    {"throughput_cpi_per_s", r.throughput},
                    {"throughput_vs_baseline",
                     r.throughput / r0.throughput},
                    {"shed_cpis", r.faults.shed_cpis.size()},
                    {"frames_delayed",
                     r.events.count(core::EventKind::kFrameDelayed)},
                    {"detections", dets}}));
  }

  // --- panel 2: corruption sweep (retransmission repairs silently) ---------
  std::printf("\n%-12s %12s %14s %14s %12s\n", "corrupt prob", "throughput",
              "corrupted", "retransmits", "detections");
  for (const double prob : {0.02, 0.10}) {
    FaultPlan plan(/*seed=*/7);
    comm::FaultRule rule;
    rule.type = comm::FaultType::kCorrupt;
    rule.probability = prob;
    plan.add(rule);
    auto pipe = make_pipeline();
    pipe.set_fault_plan(&plan);
    auto r = pipe.run(gen, n_cpis, 2, 2);
    size_t dets = 0;
    for (const auto& d : r.detections) dets += d.size();
    std::printf("%-12.2f %9.2f /s %14llu %14llu %12zu\n", prob,
                r.throughput,
                static_cast<unsigned long long>(
                    r.events.count(core::EventKind::kFrameCorrupted)),
                static_cast<unsigned long long>(r.faults.retransmissions),
                dets);
    bench::report_row(
        bench::row({{"kind", "corruption_sweep"},
                    {"corrupt_probability", prob},
                    {"throughput_cpi_per_s", r.throughput},
                    {"frames_corrupted",
                     r.events.count(core::EventKind::kFrameCorrupted)},
                    {"retransmissions", r.faults.retransmissions},
                    {"detections", dets}}));
  }

  // --- panel 3: spare-rank failover vs the model's migration stall ---------
  {
    FaultPlan plan;
    plan.add(FaultPlan::kill_on_recv(
        setup.a.first_rank(stap::Task::kHardWeight),
        static_cast<int>(n_cpis / 2) * kTagStride + kEdgeDopToHardWt));
    auto pipe = make_pipeline();
    core::FaultToleranceConfig ft;
    ft.spares = 1;
    pipe.set_fault_tolerance(ft);
    pipe.set_fault_plan(&plan);
    auto r = pipe.run(gen, n_cpis, 2, 2);
    size_t dets = 0;
    for (const auto& d : r.detections) dets += d.size();

    // The model's prediction for moving the same weight state (plan a
    // no-op reallocation: identical assignment, mid-stream switch).
    auto sim = bench::paper_simulator();
    core::ReallocationPlan rp;
    rp.before = core::NodeAssignment::paper_case3();
    rp.after = core::NodeAssignment::paper_case3();
    rp.switch_cpi = 12;
    const double model_stall =
        sim.simulate_reallocation(rp, 25).migration_stall;

    std::printf("\nspare-rank failover (hard weight rank killed at CPI "
                "%ld):\n", static_cast<long>(n_cpis / 2));
    const auto heals = r.events.heals();
    if (heals.size() == 1 && heals[0].kind == core::EventKind::kHealSpare) {
      const auto& ev = heals[0];
      std::printf("  recovered rank %d at CPI %ld, measured stall %.4f s "
                  "(model migration stall at paper scale: %.4f s)\n",
                  ev.rank, static_cast<long>(ev.cpi), ev.seconds,
                  model_stall);
      std::printf("  throughput %.2f CPI/s (%.1f%% of baseline), %zu "
                  "detections (baseline %zu)\n",
                  r.throughput, 100.0 * r.throughput / r0.throughput, dets,
                  base_dets);
      bench::report_row(bench::row(
          {{"kind", "failover"},
           {"killed_rank", ev.rank},
           {"resume_cpi", ev.cpi},
           {"recovery_stall_s", ev.seconds},
           {"model_migration_stall_s", model_stall},
           {"throughput_cpi_per_s", r.throughput},
           {"throughput_vs_baseline", r.throughput / r0.throughput},
           {"detections", dets}}));
    } else {
      std::printf("  expected one spare takeover, the event log has %zu "
                  "heals\n",
                  heals.size());
      return bench::report_finish(1);
    }
  }

  std::printf(
      "\nReading: shedding turns an unbounded stall into a bounded,\n"
      "accounted loss of the stalled CPIs; retransmission makes corruption\n"
      "invisible at the cost of a resend; and a dead weight rank costs one\n"
      "recovery stall comparable to the model's planned migration stall,\n"
      "after which the stream continues bit-exact.\n");
  return bench::report_finish();
}
