// Extension bench: adaptive overload control on the real threaded pipeline.
//
// A front end offers CPIs at its own rate, not at the rate the pipeline
// happens to sustain. This bench calibrates the pipeline's fault-free
// capacity, then paces arrivals at 1.0x / 1.5x / 2.0x that capacity under
// three policies:
//
//   uncontrolled  pacing only: no admission bound, no ladder. Queues (and
//                 therefore latency) grow without bound at overload.
//   shed-only     bounded admission queue, ladder off: at queue_high whole
//                 CPIs are rejected. Latency is bounded but completion
//                 drops toward capacity/offered.
//   ladder        bounded queue + the graceful-degradation ladder: fewer
//                 beams, frozen hard recursion, stale weights before any
//                 CPI is dropped. The cheap rungs raise capacity past the
//                 offered rate, so almost every CPI still completes.
//
// The setup is deliberately beamform-bound (many beams, modest weight
// training) so the reduced-beam rungs attack the actual bottleneck.
//
// Exit code asserts the PR's acceptance bar at 2.0x offered load:
// the ladder sustains >= 95% CPI completion, the shed-only baseline is
// measurably lower, and the ladder's p99 latency stays bounded (far below
// the uncontrolled policy's).
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "dsp/waveform.hpp"
#include "synth/steering.hpp"

using namespace ppstap;

namespace {

struct Setup {
  stap::StapParams p;
  synth::ScenarioParams sp;
  // Beamform gets one rank per flavor while pulse compression (which does
  // not degrade) is spread wide — the ladder must shrink the bottleneck.
  core::NodeAssignment a{{2, 1, 1, 1, 1, 4, 2}};

  static Setup make() {
    Setup s;
    s.p.num_range = 192;
    s.p.num_channels = 8;
    s.p.num_pulses = 32;
    s.p.num_beams = 24;
    s.p.num_hard = 8;
    s.p.stagger = 2;
    s.p.num_segments = 2;
    s.p.easy_samples_per_cpi = 16;
    s.p.hard_samples_per_segment = 12;
    s.p.cfar_ref = 4;
    s.p.cfar_guard = 1;
    s.p.validate();
    s.sp.num_range = s.p.num_range;
    s.sp.num_channels = s.p.num_channels;
    s.sp.num_pulses = s.p.num_pulses;
    s.sp.clutter.num_patches = 8;
    s.sp.clutter.cnr_db = 35.0;
    // No chirp spreading at the source: CPI generation must stay far
    // cheaper than the pipeline's bottleneck or the mutex-serialized
    // source throttles arrivals below the offered rate and no overload
    // ever materializes. The pipeline still runs a real matched filter
    // (the bench passes its own replica below).
    s.sp.chirp_length = 0;
    s.sp.targets.push_back(synth::Target{60, 9.0 / 32.0, 0.0, 12.0});
    return s;
  }
};

struct RunStats {
  double completion = 0.0;  // fraction of CPIs that produced detections
  double p99 = 0.0;
  double throughput = 0.0;
  size_t shed = 0;
  int max_level = 0;
  std::uint64_t level_changes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::report_init("ext_overload", argc, argv);
  auto setup = Setup::make();
  synth::ScenarioGenerator gen(setup.sp);
  auto steering = synth::steering_matrix(
      setup.p.num_channels, setup.p.num_beams, setup.p.beam_center_rad,
      setup.p.beam_span_rad);
  const std::vector<cfloat> replica = dsp::lfm_chirp(8);
  const index_t n_cpis = 80;
  const index_t warmup = 4, cooldown = 2;

  auto run_policy = [&](const char* policy, double period) {
    core::ParallelStapPipeline pipe(setup.p, setup.a, steering, replica);
    core::OverloadConfig cfg;
    cfg.enabled = true;
    cfg.arrival_period_seconds = period;
    // Escalation starts at backlog 4; the hard bound sits well above it so
    // the ladder has room to drain a burst before any CPI must be dropped.
    cfg.queue_low = 4;
    cfg.queue_high = 24;
    cfg.dwell = 6;
    cfg.reject_when_full = true;
    const std::string pol = policy;
    if (pol == "uncontrolled") {
      cfg.ladder = false;
      cfg.queue_high = 1'000'000;  // bound never reached: pacing only
      cfg.queue_low = 1'000'000;
    } else if (pol == "shed-only") {
      cfg.ladder = false;
    }
    pipe.set_overload(cfg);
    auto r = pipe.run(gen, n_cpis, warmup, cooldown);
    RunStats st;
    size_t completed = 0;
    for (index_t i = 0; i < n_cpis; ++i) {
      bool is_shed = false;
      for (const index_t c : r.faults.shed_cpis)
        if (c == i) is_shed = true;
      if (!is_shed) ++completed;
    }
    st.completion =
        static_cast<double>(completed) / static_cast<double>(n_cpis);
    st.p99 = r.latency_percentiles.p99;
    st.throughput = r.throughput;
    st.shed = r.faults.shed_cpis.size();
    st.max_level = r.events.max_level();
    st.level_changes = r.events.count(core::EventKind::kLevelChange);
    return st;
  };

  bench::print_header("Adaptive overload control (real threaded pipeline)");

  // --- capacity calibration: free-running, controller off ------------------
  core::ParallelStapPipeline base(setup.p, setup.a, steering, replica);
  core::OverloadConfig off;
  off.enabled = false;
  base.set_overload(off);
  auto r0 = base.run(gen, n_cpis / 2, warmup, cooldown);
  const double t0 = 1.0 / r0.throughput;  // sustainable seconds per CPI
  std::printf("calibrated capacity: %.2f CPI/s (T0 = %.4f s/CPI)\n",
              r0.throughput, t0);
  for (int t = 0; t < stap::kNumTasks; ++t)
    std::printf("  %-24s recv %7.4f comp %7.4f send %7.4f\n",
                stap::task_name(static_cast<stap::Task>(t)),
                r0.timing[static_cast<size_t>(t)].recv,
                r0.timing[static_cast<size_t>(t)].comp,
                r0.timing[static_cast<size_t>(t)].send);
  bench::report_row(bench::row({{"kind", "calibration"},
                                {"capacity_cpi_per_s", r0.throughput},
                                {"t0_s", t0}}));
  if (std::getenv("PPSTAP_OVERLOAD_BENCH_CALIBRATE_ONLY") != nullptr)
    return bench::report_finish(0);

  std::printf("\n%-8s %-14s %12s %10s %10s %10s %8s\n", "load", "policy",
              "completion", "p99 (s)", "CPI/s", "shed", "maxlvl");

  double ladder_completion_2x = 0.0, shed_completion_2x = 0.0;
  double ladder_p99_2x = 0.0, uncontrolled_p99_2x = 0.0;
  for (const double load : {1.0, 1.5, 2.0}) {
    const double period = t0 / load;
    for (const char* policy : {"uncontrolled", "shed-only", "ladder"}) {
      const RunStats st = run_policy(policy, period);
      std::printf("%-8.1f %-14s %11.1f%% %10.4f %10.2f %10zu %8d\n", load,
                  policy, 100.0 * st.completion, st.p99, st.throughput,
                  st.shed, st.max_level);
      bench::report_row(bench::row({{"kind", "sweep"},
                                    {"offered_load", load},
                                    {"policy", policy},
                                    {"arrival_period_s", period},
                                    {"completion", st.completion},
                                    {"p99_s", st.p99},
                                    {"throughput_cpi_per_s", st.throughput},
                                    {"shed_cpis", st.shed},
                                    {"max_level", st.max_level},
                                    {"level_changes", st.level_changes}}));
      if (load == 2.0) {
        const std::string pol = policy;
        if (pol == "ladder") {
          ladder_completion_2x = st.completion;
          ladder_p99_2x = st.p99;
        } else if (pol == "shed-only") {
          shed_completion_2x = st.completion;
        } else {
          uncontrolled_p99_2x = st.p99;
        }
      }
    }
  }

  std::printf(
      "\nReading: without control, queueing delay at 2x load grows with\n"
      "stream length; shed-only bounds latency by dropping whole CPIs;\n"
      "the ladder gives up beams and weight freshness first, so nearly\n"
      "every CPI still produces (degraded) detections on time.\n");

  // --- acceptance assertions at 2x offered load ----------------------------
  int rc = 0;
  if (ladder_completion_2x < 0.95) {
    std::printf("FAIL: ladder completion at 2x = %.1f%% (< 95%%)\n",
                100.0 * ladder_completion_2x);
    rc = 1;
  }
  if (shed_completion_2x >= ladder_completion_2x - 0.05) {
    std::printf("FAIL: shed-only completion %.1f%% not measurably below "
                "ladder %.1f%%\n",
                100.0 * shed_completion_2x, 100.0 * ladder_completion_2x);
    rc = 1;
  }
  if (uncontrolled_p99_2x > 0.0 && ladder_p99_2x >= uncontrolled_p99_2x) {
    std::printf("FAIL: ladder p99 %.4f s not below uncontrolled %.4f s\n",
                ladder_p99_2x, uncontrolled_p99_2x);
    rc = 1;
  }
  if (rc == 0)
    std::printf("PASS: ladder %.1f%% completion at 2x (shed-only %.1f%%), "
                "p99 %.4f s vs uncontrolled %.4f s\n",
                100.0 * ladder_completion_2x, 100.0 * shed_completion_2x,
                ladder_p99_2x, uncontrolled_p99_2x);
  return bench::report_finish(rc);
}
