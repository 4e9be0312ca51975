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
//     every CPI still completes bit-identical to the clean baseline — gray
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
// Every injected run goes through the chaos harness (chaos.hpp), so gate
// (a) is its invariant set: full stream, no shed, every CPI bitwise equal
// to the clean baseline, and every duplicate discarded.
//
// `--smoke` runs a reduced subset (baseline + containment + duplicates)
// for sanitizer CI; `--json` writes BENCH_grayfail.json for
// scripts/bench_compare.py.
#include <cstdio>
#include <string>

#include "chaos.hpp"

using namespace ppstap;
using bench::chaos::Scenario;
using comm::FaultPlan;
using core::EventKind;

namespace {

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

bench::chaos::Fixture make_fixture() {
  // Doppler-heavy shape: many pulses drive the per-slab FFT cost (which
  // the kSlow injection stretches) well past the send-copy cost (which
  // it does not), so an 8x straggler in the two-rank Doppler group
  // outweighs the host's entire per-CPI compute and visibly paces the
  // sink instead of hiding under pipeline slack. Light clutter: scenario
  // synthesis is serial per CPI and scales with patches x range — keep it
  // from dwarfing the pipeline's own compute.
  auto f = bench::chaos::host_fixture(/*num_range=*/1024, /*num_pulses=*/64,
                                      /*clutter_patches=*/4, /*cnr_db=*/40.0);
  // The clean reference run doubles as the false-quarantine check.
  f.health = health_on();
  return f;
}

int g_failures = 0;

void gate(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::printf("  GATE FAILED: %s\n", what.c_str());
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

  bench::chaos::Runner runner(make_fixture());
  // Two Doppler ranks (not four): each carries a meaty slab, so a
  // straggler there measurably paces the sink and the recovery gate has a
  // real signal to detect even on a heavily shared host.
  core::NodeAssignment a;
  a.nodes = {{2, 2, 6, 2, 2, 2, 2}};
  const index_t n_cpis = smoke ? 16 : 24;
  // Doppler local 1: a multi-rank group member, never the elastic
  // coordinator (Doppler local 0).
  const int victim = a.first_rank(stap::Task::kDopplerFilter) + 1;

  // Every injection below must leave the stream whole and bit-identical to
  // the clean run.
  Scenario whole;
  whole.nodes = a.nodes;
  whole.n_cpis = n_cpis;
  whole.allow_shed = false;

  // --- panel 1: clean baseline, detector armed -----------------------------
  bench::print_header(smoke ? "Gray-failure containment (smoke subset)"
                            : "Gray-failure containment chaos suite");
  const auto& reference = runner.reference(a.nodes, n_cpis);
  const core::PipelineResult& base = reference.r;
  gate(reference.clean(), "baseline: shed, retransmitted, healed or migrated");
  gate(base.events.count(EventKind::kQuarantine) == 0,
       "baseline: false quarantine");
  const double base_period = tail_period(base, 2);
  std::printf("clean baseline (health armed): %.2f CPI/s, %zu detections, "
              "%.4f s/CPI steady-state, %llu health events\n",
              base.throughput, bench::chaos::total_detections(base),
              base_period,
              static_cast<unsigned long long>(base.events.verdicts().size()));
  std::printf("per-rank service floors (ms):");
  for (const auto& rh : base.events.of(EventKind::kRankHealth))
    std::printf(" r%d=%.2f", rh.rank, 1e3 * rh.seconds);
  std::printf("\n");
  bench::report_row(bench::row(
      {{"kind", "baseline"},
       {"throughput_cpi_per_s", base.throughput},
       {"steady_period_s", base_period},
       {"detections", bench::chaos::total_detections(base)},
       {"health_events", base.events.verdicts().size()},
       {"false_quarantines", base.events.count(EventKind::kQuarantine)}}));

  // --- panel 2: slowdown sweep, containment OFF ----------------------------
  if (!smoke) {
    std::printf("\n%-10s %12s %10s %12s %12s\n", "slowdown", "throughput",
                "vs base", "slow stages", "detections");
    for (const double factor : {1.5, 2.0, 4.0, 8.0, 16.0}) {
      Scenario sc = whole;
      sc.name = "slowdown " + std::to_string(factor) + "x";
      sc.rules = {FaultPlan::slow_rank(victim, factor)};
      const auto o = runner.run(sc, /*seed=*/42);
      const core::PipelineResult& r = o.r;
      gate(r.events.count(EventKind::kStageSlowdown) > 0,
           "slowdown sweep: no stage was slowed");
      std::printf("%-10.1f %9.2f /s %9.1f%% %12llu %12zu\n", factor,
                  r.throughput, 100.0 * r.throughput / base.throughput,
                  static_cast<unsigned long long>(
                      r.events.count(EventKind::kStageSlowdown)),
                  bench::chaos::total_detections(r));
      obs::Json row = bench::row(
          {{"kind", "slowdown_sweep"},
           {"factor", factor},
           {"throughput_cpi_per_s", r.throughput},
           {"throughput_vs_baseline", r.throughput / base.throughput},
           {"stage_slowdowns", r.events.count(EventKind::kStageSlowdown)},
           {"detections", bench::chaos::total_detections(r)}});
      bench::chaos::add_fields(row, o);
      bench::report_row(std::move(row));
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
    Scenario off_sc = whole;
    off_sc.name = "containment OFF";
    off_sc.rules = {FaultPlan::slow_rank(victim, factor)};
    const auto off_o = runner.run(off_sc, /*seed=*/42);
    const core::PipelineResult& off = off_o.r;
    const double off_period = tail_period(off, 2);

    Scenario on_sc = off_sc;
    on_sc.name = "containment ON";
    on_sc.ft.spares = 1;
    on_sc.health = health_on();
    on_sc.spare_heals = 1;
    const auto on_o = runner.run(on_sc, /*seed=*/42);
    const core::PipelineResult& on = on_o.r;

    gate(on.events.count(EventKind::kQuarantine) == 1,
         "containment ON: quarantine count");
    int quarantine_heals = 0;
    index_t resume_cpi = 0;
    double mttr = 0.0;
    for (const auto& e : on.events.heals())
      if (std::string(e.cause) == "quarantine") {
        ++quarantine_heals;
        gate(e.rank == victim, "containment ON: wrong rank evicted");
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
                static_cast<unsigned long long>(
                    off.events.count(EventKind::kStageSlowdown)));
    std::printf("  ON:  quarantined at CPI %ld (MTTR %.6f s), post-recovery "
                "%.4f s/CPI = %.0f%% of baseline pace\n",
                static_cast<long>(resume_cpi), mttr, on_period,
                100.0 * recovered);
    obs::Json row = bench::row(
        {{"kind", "containment"},
         {"factor", factor},
         {"off_steady_period_s", off_period},
         {"off_pace_vs_baseline", off_pace},
         {"on_steady_period_s", on_period},
         {"recovered_vs_baseline", recovered},
         {"quarantines", on.events.count(EventKind::kQuarantine)},
         {"quarantine_mttr_s", mttr},
         {"resume_cpi", resume_cpi},
         {"flap_suppressed", on.events.count(EventKind::kFlapSuppressed)},
         {"vetoed", on.events.count(EventKind::kVetoed)}});
    bench::chaos::add_fields(row, on_o);
    bench::report_row(std::move(row));
  }

  // --- panel 4: flaky link (heavy-tailed jitter) ---------------------------
  if (!smoke) {
    Scenario sc = whole;
    sc.name = "flaky link";
    sc.rules = {FaultPlan::jitter_edge(core::kDopToEasyBf, comm::kTagStride,
                                       /*scale=*/0.002, /*shape=*/1.2,
                                       /*cap=*/0.02, /*probability=*/0.5)};
    sc.health = health_on();
    const auto o = runner.run(sc, /*seed=*/7);
    const core::PipelineResult& r = o.r;
    gate(r.events.count(EventKind::kFrameJittered) > 0,
         "flaky link: nothing jittered");
    // Delivery wait is queue time, not service time: a flaky link must
    // never read as a slow rank.
    gate(r.events.count(EventKind::kQuarantine) == 0,
         "flaky link: false quarantine");
    std::printf("\nflaky link (Pareto jitter, p=0.5): %llu frames "
                "jittered, %.2f CPI/s, %zu detections, %llu quarantines\n",
                static_cast<unsigned long long>(
                    r.events.count(EventKind::kFrameJittered)),
                r.throughput, bench::chaos::total_detections(r),
                static_cast<unsigned long long>(
                    r.events.count(EventKind::kQuarantine)));
    obs::Json row = bench::row(
        {{"kind", "flaky_link"},
         {"frames_jittered", r.events.count(EventKind::kFrameJittered)},
         {"throughput_cpi_per_s", r.throughput},
         {"throughput_vs_baseline", r.throughput / base.throughput},
         {"detections", bench::chaos::total_detections(r)},
         {"false_quarantines", r.events.count(EventKind::kQuarantine)}});
    bench::chaos::add_fields(row, o);
    bench::report_row(std::move(row));
  }

  // --- panel 5: duplicate storm --------------------------------------------
  {
    Scenario sc = whole;
    sc.name = "duplicate storm";
    sc.rules = {FaultPlan::duplicate_edge(core::kDopToEasyBf,
                                          comm::kTagStride,
                                          /*probability=*/1.0,
                                          /*extra_delay=*/0.001),
                FaultPlan::duplicate_edge(core::kPcToCfar, comm::kTagStride,
                                          /*probability=*/1.0,
                                          /*extra_delay=*/0.0)};
    sc.health = health_on();
    const auto o = runner.run(sc, /*seed=*/13);
    const core::PipelineResult& r = o.r;
    gate(r.events.count(EventKind::kFrameDuplicated) > 0,
         "duplicate storm: no duplicates");
    gate(r.events.count(EventKind::kQuarantine) == 0,
         "duplicate storm: false quarantine");
    std::printf("\nduplicate storm (2 edges, p=1.0): %llu duplicated, %llu "
                "discarded by the seq ledger, %zu detections (baseline "
                "%zu)\n",
                static_cast<unsigned long long>(
                    r.events.count(EventKind::kFrameDuplicated)),
                static_cast<unsigned long long>(
                    r.events.count(EventKind::kDupDiscarded)),
                bench::chaos::total_detections(r),
                bench::chaos::total_detections(base));
    obs::Json row = bench::row(
        {{"kind", "duplicate_storm"},
         {"frames_duplicated", r.events.count(EventKind::kFrameDuplicated)},
         {"dup_discarded", r.events.count(EventKind::kDupDiscarded)},
         {"throughput_cpi_per_s", r.throughput},
         {"detections", bench::chaos::total_detections(r)},
         {"false_quarantines", r.events.count(EventKind::kQuarantine)}});
    bench::chaos::add_fields(row, o);
    bench::report_row(std::move(row));
  }

  g_failures += runner.failures();
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
