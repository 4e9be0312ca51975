// Extension bench: mid-stream processor re-allocation (paper §8's closing
// requirement: "handle any changes in the requirements on the response
// time by dynamically allocating or re-allocating processors among
// tasks").
//
// Scenario: the pipeline cruises at the 59-node case-3 configuration; at
// CPI 12 the input rate requirement doubles and 59 more nodes come online
// in the case-2 shape. Reported: steady-state throughput/latency on both
// sides of the switch and the one-time migration stall (the adaptive
// weight state — easy training history + hard triangular factors — is the
// only state that must move).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "dsp/waveform.hpp"
#include "synth/steering.hpp"

using namespace ppstap;
using core::NodeAssignment;

namespace {

// Cross-validation against the live elastic engine (PR 7): run the same
// *kind* of re-allocation — one rank into the Doppler group at a mid-run
// switch point — on the real threaded pipeline, and put the live engine's
// measured quiesce stall next to the simulator's transient for an
// identically-shaped plan. Both stalls are reported in CPI periods at the
// pre-switch rate so a machine-speed mismatch between the calibrated
// Paragon model and this host cancels out.
void live_cross_validation() {
  stap::StapParams p = stap::StapParams::small_test();
  p.num_range = 96;
  p.num_channels = 8;
  p.num_pulses = 16;
  p.num_beams = 2;
  p.num_hard = 6;
  p.stagger = 2;
  p.num_segments = 2;
  p.easy_samples_per_cpi = 12;
  p.hard_samples_per_segment = 10;
  p.cfar_ref = 4;
  p.cfar_guard = 1;
  p.validate();
  synth::ScenarioParams sp;
  sp.num_range = p.num_range;
  sp.num_channels = p.num_channels;
  sp.num_pulses = p.num_pulses;
  sp.clutter.num_patches = 6;
  sp.clutter.cnr_db = 35.0;
  sp.chirp_length = 0;
  sp.targets.push_back(synth::Target{30, 7.0 / 16.0, 0.0, 12.0});
  synth::ScenarioGenerator gen(sp);
  auto steering = synth::steering_matrix(p.num_channels, p.num_beams,
                                         p.beam_center_rad, p.beam_span_rad);
  const std::vector<cfloat> replica = dsp::lfm_chirp(8);

  NodeAssignment a;
  a[stap::Task::kDopplerFilter] = 2;
  a[stap::Task::kPulseCompression] = 2;
  const index_t n_cpis = 30;
  const index_t switch_cpi = 10;

  core::ParallelStapPipeline pipe(p, a, steering, replica);
  core::ElasticConfig el;
  el.forced.push_back(core::ForcedMigration{
      switch_cpi, stap::Task::kPulseCompression, stap::Task::kDopplerFilter});
  pipe.set_elastic(el);
  const auto live = pipe.run(gen, n_cpis, /*warmup=*/2, /*cooldown=*/2);
  const auto commits = live.events.of(core::EventKind::kMigrationCommit);
  const auto rollbacks = live.events.of(core::EventKind::kMigrationRollback);
  if (commits.size() != 1) {
    std::printf("\nlive cross-validation: migration did not commit "
                "(%zu attempts) — skipping\n",
                commits.size() + rollbacks.size());
    return;
  }
  const core::Event& ev = commits[0];
  const double stall = core::barrier_stall_seconds(live, ev.cpi);
  const double live_gap = bench::median_gap(live.completion_times, 2, ev.cpi);
  const double live_stall_periods = live_gap > 0.0 ? stall / live_gap : 0.0;

  core::PipelineSimulator sim_small(p, core::ParagonParams::calibrated());
  core::ReallocationPlan plan;
  plan.before = a;
  plan.after = a;
  plan.after[stap::Task::kPulseCompression] -= 1;
  plan.after[stap::Task::kDopplerFilter] += 1;
  plan.switch_cpi = switch_cpi;
  const auto rs = sim_small.simulate_reallocation(plan, n_cpis);
  const double sim_stall_periods =
      rs.migration_stall * rs.throughput_before;
  double sim_transient_periods = 0.0;
  if (plan.switch_cpi >= 1 &&
      plan.switch_cpi < static_cast<index_t>(rs.completion.size()) &&
      rs.throughput_before > 0.0) {
    const auto b = static_cast<size_t>(plan.switch_cpi);
    sim_transient_periods = (rs.completion[b] - rs.completion[b - 1]) *
                                rs.throughput_before -
                            1.0;
  }

  std::printf("\nlive engine cross-validation (PC -> Doppler at CPI %lld "
              "on the threaded pipeline):\n",
              static_cast<long long>(switch_cpi));
  std::printf("  live:  barrier CPI %lld, stall %.4f s = %.2f periods "
              "(quiesce + checkpoint + re-route)\n",
              static_cast<long long>(ev.cpi), stall,
              live_stall_periods);
  std::printf("  sim:   migration stall %.6f s = %.3f periods (state "
              "transfer), switch transient %.2f periods (drain + refill)\n",
              rs.migration_stall, sim_stall_periods, sim_transient_periods);
  bench::report_row(bench::row({{"phase", "live_cross_validation"},
                                {"barrier_cpi", ev.cpi},
                                {"live_stall_s", stall},
                                {"live_stall_periods", live_stall_periods},
                                {"sim_stall_periods", sim_stall_periods},
                                {"sim_transient_periods",
                                 sim_transient_periods}}));
}

}  // namespace

int main(int argc, char** argv) {
  bench::report_init("ext_dynamic_reallocation", argc, argv);
  auto sim = bench::paper_simulator();

  core::ReallocationPlan plan;
  plan.before = NodeAssignment::paper_case3();   // 59 nodes
  plan.after = NodeAssignment::paper_case2();    // 118 nodes
  plan.switch_cpi = 12;
  const auto r = sim.simulate_reallocation(plan, 25);

  bench::print_header(
      "Dynamic re-allocation: case 3 (59 nodes) -> case 2 (118 nodes) at "
      "CPI 12");
  std::printf("weight state to migrate: %.2f MB -> stall %.4f s "
              "(%.1f CPI periods at the new rate)\n\n",
              sim.weight_state_bytes() / 1e6, r.migration_stall,
              r.migration_stall * r.throughput_after);
  std::printf("%-10s %14s %14s\n", "phase", "throughput", "latency");
  std::printf("%-10s %11.3f /s %12.4f s\n", "before", r.throughput_before,
              r.latency_before);
  std::printf("%-10s %11.3f /s %12.4f s\n", "after", r.throughput_after,
              r.latency_after);
  bench::report_row(bench::row({{"phase", "before"},
                                {"nodes", plan.before.total()},
                                {"throughput_cpi_per_s", r.throughput_before},
                                {"latency_s", r.latency_before}}));
  bench::report_row(bench::row({{"phase", "after"},
                                {"nodes", plan.after.total()},
                                {"throughput_cpi_per_s", r.throughput_after},
                                {"latency_s", r.latency_after},
                                {"migration_stall_s", r.migration_stall}}));

  // Static references for comparison.
  const auto s3 = sim.simulate(plan.before);
  const auto s2 = sim.simulate(plan.after);
  std::printf("\nstatic case 3: %.3f /s, %.4f s   static case 2: %.3f /s, "
              "%.4f s\n",
              s3.throughput_measured, s3.latency_measured,
              s2.throughput_measured, s2.latency_measured);

  std::printf("\ncompletion-time transient around the switch (CPI: gap to "
              "previous completion):\n");
  for (size_t t = 9; t < 17 && t < r.completion.size(); ++t)
    std::printf("  CPI %2zu: %+8.4f s%s\n", t,
                r.completion[t] - r.completion[t - 1],
                t == 12 ? "   <- switch (drain + migrate + refill)" : "");
  std::printf(
      "\nReading: the pipeline reaches the new steady state within a "
      "couple of CPIs of the switch; the migration itself costs well under "
      "one second because the adaptive state is small (the data cubes are "
      "transient and never migrate).\n");

  live_cross_validation();
  return bench::report_finish();
}
