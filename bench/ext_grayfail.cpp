// Extension bench: gray-failure containment chaos suite (PR 10).
//
// The paper's placement model assumes every node of a task group runs at
// nominal speed — one degraded-but-alive node silently caps the whole
// pipeline (eq. 1: throughput is the inverse of the slowest task) while
// binary fail-stop detection stays quiet. This suite injects the gray
// failures the model ignores and gates, by exit code, on the containment
// machinery keeping the stream whole:
//
//  1. Clean baseline with the detector armed: zero false quarantines
//     (gate c) — the floor statistic must stay quiet on a noisy host.
//  2. Slowdown sweep (1.5x-16x on one Doppler rank, containment OFF):
//     every CPI still completes with the baseline's detections — gray
//     degradation, not data loss (gate a).
//  3. Containment ON vs OFF under a persistent 8x straggler: ON must
//     confirm + quarantine exactly the victim onto the spare (mechanism
//     "quarantine", MTTR measured) and recover >= 90% of the clean
//     baseline's steady-state pace, while OFF tracks the straggler's pace
//     (gate b).
//  4. Flaky link: heavy-tailed per-edge jitter delays frames but loses
//     nothing, and never trips the detector — delivery wait is queue
//     time, not service time (gate a).
//  5. Duplicate storm: every re-delivered frame is discarded by the
//     receiver's seq ledger; the sink sees each CPI exactly once (gate a).
//
// `--smoke` runs a reduced subset (baseline + containment + duplicates)
// for sanitizer CI; `--json` writes BENCH_grayfail.json for
// scripts/bench_compare.py.
#include <cstdio>
#include <string>
#include <vector>

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
constexpr int kEdgePcToCfar = 8;

struct Setup {
  stap::StapParams p;
  synth::ScenarioParams sp;
  // Two Doppler ranks (not four): each carries a meaty slab, so a
  // straggler there measurably paces the sink and the recovery gate has a
  // real signal to detect even on a heavily shared host.
  core::NodeAssignment a{{2, 2, 6, 2, 2, 2, 2}};

  static Setup make() {
    Setup s;
    // Doppler-heavy shape: many pulses drive the per-slab FFT cost (which
    // the kSlow injection stretches) well past the send-copy cost (which
    // it does not), so an 8x straggler in the two-rank Doppler group
    // outweighs the host's entire per-CPI compute and visibly paces the
    // sink instead of hiding under pipeline slack.
    s.p.num_range = 1024;
    s.p.num_channels = 8;
    s.p.num_pulses = 64;
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
    // Light clutter: scenario synthesis is serial per CPI and scales with
    // patches x range — keep it from dwarfing the pipeline's own compute.
    s.sp.clutter.num_patches = 4;
    s.sp.clutter.cnr_db = 40.0;
    s.sp.chirp_length = 16;
    s.sp.targets.push_back(synth::Target{45, 10.0 / 32.0, 0.0, 12.0});
    return s;
  }
};

// Detector regime for this bench's scale and an arbitrarily noisy host:
// floor windows only (min_samples 4) and an absolute floor above
// scheduler-noise territory.
core::HealthConfig health_on() {
  core::HealthConfig hc;
  hc.enabled = true;
  hc.zscore = 3.0;
  // Consecutive sink scans share most of a floor window, so dwell adds
  // persistence, not independence — pair it with a wide ratio gate. 3x
  // also clears this fixture's structural Doppler asymmetry: the training
  // cells cluster in rank 0's range slab, so its service legitimately runs
  // ~2x its peer's.
  hc.dwell = 3;
  hc.min_ratio = 4.0;
  hc.min_samples = 4;
  hc.alpha = 0.5;
  hc.min_service = 1e-3;
  return hc;
}

core::HealthConfig health_off() {
  core::HealthConfig hc;
  hc.enabled = false;
  return hc;
}

int g_failures = 0;

void gate(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::printf("  GATE FAILED: %s\n", what.c_str());
}

size_t total_dets(const core::PipelineResult& r) {
  size_t n = 0;
  for (const auto& d : r.detections) n += d.size();
  return n;
}

/// Gate (a): every CPI completed at the sink, exactly once, with exactly
/// the baseline's detections — nothing lost, nothing duplicated.
void gate_stream_whole(const core::PipelineResult& r,
                       const core::PipelineResult& base,
                       const std::string& label) {
  gate(r.detections.size() == base.detections.size(),
       label + ": stream length mismatch");
  gate(r.faults.shed_cpis.empty(), label + ": shed CPIs");
  size_t mismatched = 0;
  for (size_t i = 0;
       i < r.detections.size() && i < base.detections.size(); ++i) {
    if (r.detections[i].size() != base.detections[i].size()) ++mismatched;
    if (r.completion_times[i] <= 0.0) ++mismatched;
  }
  gate(mismatched == 0, label + ": " + std::to_string(mismatched) +
                            " CPIs lost or altered at the sink");
}

/// Steady-state pace over the tail of the stream: mean sink
/// inter-completion gap from `from_cpi` on (seconds per CPI).
double tail_period(const core::PipelineResult& r, index_t from_cpi) {
  double prev = -1.0, sum = 0.0;
  int n = 0;
  for (size_t i = static_cast<size_t>(from_cpi);
       i < r.completion_times.size(); ++i) {
    const double t = r.completion_times[i];
    if (t <= 0.0) continue;
    if (prev > 0.0 && t > prev) {
      sum += t - prev;
      ++n;
    }
    prev = t;
  }
  return n > 0 ? sum / n : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::report_init("ext_grayfail", argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") smoke = true;

  auto setup = Setup::make();
  synth::ScenarioGenerator gen(setup.sp);
  auto steering = synth::steering_matrix(
      setup.p.num_channels, setup.p.num_beams, setup.p.beam_center_rad,
      setup.p.beam_span_rad);
  const std::vector<cfloat> replica{gen.replica().begin(),
                                    gen.replica().end()};
  const index_t n_cpis = smoke ? 16 : 24;
  // Doppler local 1: a multi-rank group member, never the elastic
  // coordinator (Doppler local 0).
  const int victim = setup.a.first_rank(stap::Task::kDopplerFilter) + 1;

  auto make_pipeline = [&] {
    return core::ParallelStapPipeline(setup.p, setup.a, steering, replica);
  };

  // --- panel 1: clean baseline, detector armed -----------------------------
  bench::print_header(smoke ? "Gray-failure containment (smoke subset)"
                            : "Gray-failure containment chaos suite");
  auto base_pipe = make_pipeline();
  base_pipe.set_health(health_on());
  auto base = base_pipe.run(gen, n_cpis, 2, 2);
  gate(base.faults.clean(), "baseline: fault ledger not clean");
  gate(base.events.count(core::EventKind::kQuarantine) == 0,
       "baseline: false quarantine");
  gate(base.events.heals().empty(), "baseline: phantom healing event");
  const double base_period = tail_period(base, 2);
  std::printf("clean baseline (health armed): %.2f CPI/s, %zu detections, "
              "%.4f s/CPI steady-state, %llu health events\n",
              base.throughput, total_dets(base), base_period,
              static_cast<unsigned long long>(base.events.verdicts().size()));
  std::printf("per-rank service floors (ms):");
  for (const auto& rh : base.events.of(core::EventKind::kRankHealth))
    std::printf(" r%d=%.2f", rh.rank, 1e3 * rh.seconds);
  std::printf("\n");
  bench::report_row(bench::row(
      {{"kind", "baseline"},
       {"throughput_cpi_per_s", base.throughput},
       {"steady_period_s", base_period},
       {"detections", total_dets(base)},
       {"health_events", base.events.verdicts().size()},
       {"false_quarantines", base.events.count(core::EventKind::kQuarantine)}}));

  // --- panel 2: slowdown sweep, containment OFF ----------------------------
  if (!smoke) {
    std::printf("\n%-10s %12s %10s %12s %12s\n", "slowdown", "throughput",
                "vs base", "slow stages", "detections");
    for (const double factor : {1.5, 2.0, 4.0, 8.0, 16.0}) {
      FaultPlan plan(/*seed=*/42);
      plan.add(FaultPlan::slow_rank(victim, factor));
      auto pipe = make_pipeline();
      pipe.set_health(health_off());
      pipe.set_fault_plan(&plan);
      auto r = pipe.run(gen, n_cpis, 2, 2);
      gate_stream_whole(r, base,
                        "slowdown " + std::to_string(factor) + "x");
      gate(r.events.count(core::EventKind::kStageSlowdown) > 0,
           "slowdown sweep: no stage was slowed");
      std::printf("%-10.1f %9.2f /s %9.1f%% %12llu %12zu\n", factor,
                  r.throughput, 100.0 * r.throughput / base.throughput,
                  static_cast<unsigned long long>(r.events.count(core::EventKind::kStageSlowdown)),
                  total_dets(r));
      bench::report_row(bench::row(
          {{"kind", "slowdown_sweep"},
           {"factor", factor},
           {"throughput_cpi_per_s", r.throughput},
           {"throughput_vs_baseline", r.throughput / base.throughput},
           {"stage_slowdowns", r.events.count(core::EventKind::kStageSlowdown)},
           {"detections", total_dets(r)}}));
    }
  }

  // --- panel 3: containment ON vs OFF under a persistent straggler ---------
  {
    // 16x, not the sweep's 8x headline: the kSlow injection is a sleep, so
    // on a single-core host the victim's stretched chain must outweigh the
    // ENTIRE per-CPI compute (every other rank keeps the core busy while
    // the victim sleeps) before the sink feels it at all. The sweep above
    // shows the knee; the gated scenario sits decisively past it.
    const double factor = 16.0;
    FaultPlan plan_off(/*seed=*/42);
    plan_off.add(FaultPlan::slow_rank(victim, factor));
    auto off_pipe = make_pipeline();
    off_pipe.set_health(health_off());
    off_pipe.set_fault_plan(&plan_off);
    auto off = off_pipe.run(gen, n_cpis, 2, 2);
    const double off_period = tail_period(off, 2);

    FaultPlan plan_on(/*seed=*/42);
    plan_on.add(FaultPlan::slow_rank(victim, factor));
    auto on_pipe = make_pipeline();
    core::FaultToleranceConfig ft;
    ft.spares = 1;
    on_pipe.set_fault_tolerance(ft);
    on_pipe.set_health(health_on());
    on_pipe.set_fault_plan(&plan_on);
    auto on = on_pipe.run(gen, n_cpis, 2, 2);

    gate_stream_whole(off, base, "containment OFF");
    gate_stream_whole(on, base, "containment ON");
    gate(on.events.count(core::EventKind::kQuarantine) == 1,
         "containment ON: quarantine count");
    int quarantine_heals = 0;
    index_t resume_cpi = 0;
    double mttr = 0.0;
    for (const auto& e : on.events.heals())
      if (std::string(e.cause) == "quarantine") {
        ++quarantine_heals;
        gate(e.rank == victim, "containment ON: wrong rank evicted");
        gate(e.seconds > 0.0, "containment ON: zero MTTR");
        resume_cpi = e.cpi;
        mttr = e.seconds;
      }
    gate(quarantine_heals == 1,
         "containment ON: healing cause not \"quarantine\"");
    // Gate (b): post-recovery the spare restores the clean pace; OFF is
    // left pacing at the straggler. Both sides measured as steady-state
    // sink inter-completion gaps, compared against the clean baseline's.
    const double on_period = tail_period(on, resume_cpi + 1);
    const double recovered =
        on_period > 0.0 ? base_period / on_period : 0.0;
    const double off_pace = off_period > 0.0 ? base_period / off_period : 0.0;
    gate(recovered >= 0.9,
         "containment ON: recovered only " +
             std::to_string(100.0 * recovered) + "% of baseline pace");
    gate(off_pace < 0.85,
         "containment OFF did not degrade: straggler has no teeth");
    gate(on_period < off_period,
         "containment ON is not faster than OFF");
    std::printf("\npersistent %.0fx straggler on rank %d:\n", factor,
                victim);
    for (const auto& e : on.events.verdicts())
      std::printf("  [health] cpi %lld rank %d task %d z=%.1f %s\n",
                  static_cast<long long>(e.cpi), e.rank, e.task, e.seconds,
                  core::info(e.kind).counter);
    std::printf("  OFF: %.4f s/CPI (%.0f%% of baseline pace), ledger %llu "
                "slow stages\n",
                off_period, 100.0 * off_pace,
                static_cast<unsigned long long>(off.events.count(core::EventKind::kStageSlowdown)));
    std::printf("  ON:  quarantined at CPI %ld (MTTR %.6f s), post-recovery "
                "%.4f s/CPI = %.0f%% of baseline pace\n",
                static_cast<long>(resume_cpi), mttr, on_period,
                100.0 * recovered);
    bench::report_row(bench::row(
        {{"kind", "containment"},
         {"factor", factor},
         {"off_steady_period_s", off_period},
         {"off_pace_vs_baseline", off_pace},
         {"on_steady_period_s", on_period},
         {"recovered_vs_baseline", recovered},
         {"quarantines", on.events.count(core::EventKind::kQuarantine)},
         {"quarantine_mttr_s", mttr},
         {"resume_cpi", resume_cpi},
         {"flap_suppressed",
          on.events.count(core::EventKind::kFlapSuppressed)},
         {"vetoed", on.events.count(core::EventKind::kVetoed)}}));
  }

  // --- panel 4: flaky link (heavy-tailed jitter) ---------------------------
  if (!smoke) {
    FaultPlan plan(/*seed=*/7);
    plan.add(FaultPlan::jitter_edge(kEdgeDopToEasyBf, kTagStride,
                                    /*scale=*/0.002, /*shape=*/1.2,
                                    /*cap=*/0.02, /*probability=*/0.5));
    auto pipe = make_pipeline();
    pipe.set_health(health_on());
    pipe.set_fault_plan(&plan);
    auto r = pipe.run(gen, n_cpis, 2, 2);
    gate_stream_whole(r, base, "flaky link");
    gate(r.events.count(core::EventKind::kFrameJittered) > 0, "flaky link: nothing jittered");
    // Delivery wait is queue time, not service time: a flaky link must
    // never read as a slow rank.
    gate(r.events.count(core::EventKind::kQuarantine) == 0, "flaky link: false quarantine");
    std::printf("\nflaky link (Pareto jitter, p=0.5): %llu frames "
                "jittered, %.2f CPI/s, %zu detections, %llu quarantines\n",
                static_cast<unsigned long long>(r.events.count(core::EventKind::kFrameJittered)),
                r.throughput, total_dets(r),
                static_cast<unsigned long long>(r.events.count(core::EventKind::kQuarantine)));
    bench::report_row(bench::row(
        {{"kind", "flaky_link"},
         {"frames_jittered", r.events.count(core::EventKind::kFrameJittered)},
         {"throughput_cpi_per_s", r.throughput},
         {"throughput_vs_baseline", r.throughput / base.throughput},
         {"detections", total_dets(r)},
         {"false_quarantines", r.events.count(core::EventKind::kQuarantine)}}));
  }

  // --- panel 5: duplicate storm --------------------------------------------
  {
    FaultPlan plan(/*seed=*/13);
    plan.add(FaultPlan::duplicate_edge(kEdgeDopToEasyBf, kTagStride,
                                       /*probability=*/1.0,
                                       /*extra_delay=*/0.001));
    plan.add(FaultPlan::duplicate_edge(kEdgePcToCfar, kTagStride,
                                       /*probability=*/1.0,
                                       /*extra_delay=*/0.0));
    auto pipe = make_pipeline();
    pipe.set_health(health_on());
    pipe.set_fault_plan(&plan);
    auto r = pipe.run(gen, n_cpis, 2, 2);
    gate_stream_whole(r, base, "duplicate storm");
    gate(r.events.count(core::EventKind::kFrameDuplicated) > 0, "duplicate storm: no duplicates");
    gate(r.events.count(core::EventKind::kDupDiscarded) > 0,
         "duplicate storm: receiver discarded nothing");
    gate(r.events.count(core::EventKind::kQuarantine) == 0, "duplicate storm: false quarantine");
    std::printf("\nduplicate storm (2 edges, p=1.0): %llu duplicated, %llu "
                "discarded by the seq ledger, %zu detections (baseline "
                "%zu)\n",
                static_cast<unsigned long long>(r.events.count(core::EventKind::kFrameDuplicated)),
                static_cast<unsigned long long>(r.events.count(core::EventKind::kDupDiscarded)),
                total_dets(r), total_dets(base));
    bench::report_row(bench::row(
        {{"kind", "duplicate_storm"},
         {"frames_duplicated", r.events.count(core::EventKind::kFrameDuplicated)},
         {"dup_discarded", r.events.count(core::EventKind::kDupDiscarded)},
         {"throughput_cpi_per_s", r.throughput},
         {"detections", total_dets(r)},
         {"false_quarantines", r.events.count(core::EventKind::kQuarantine)}}));
  }

  std::printf("\n%s: %d gate failure%s\n",
              g_failures == 0 ? "PASS" : "FAIL", g_failures,
              g_failures == 1 ? "" : "s");
  std::printf(
      "\nReading: a straggler is contained, not tolerated — detection via\n"
      "peer-relative service floors, eviction as a voluntary death healed\n"
      "by the spare pool, both accounted to the CPI. Flaky links and\n"
      "duplicate storms degrade pace at worst: the seq ledger and the\n"
      "queue/service split keep the sink's stream exact.\n");
  return bench::report_finish(g_failures == 0 ? 0 : 1);
}
