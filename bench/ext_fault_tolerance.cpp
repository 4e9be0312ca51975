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
//
// Every faulted run goes through the chaos harness (chaos.hpp) and must
// hold its invariants — the stream whole, sheds recorded, surviving CPIs
// bitwise equal to the fault-free run — or the exit code is 1.
#include <algorithm>
#include <cstdio>

#include "chaos.hpp"

using namespace ppstap;
using bench::chaos::Scenario;
using comm::FaultPlan;

int main(int argc, char** argv) {
  bench::report_init("ext_fault_tolerance", argc, argv);
  bench::chaos::Runner runner(bench::chaos::host_fixture(
      /*num_range=*/128, /*num_pulses=*/32, /*clutter_patches=*/12,
      /*cnr_db=*/40.0));
  core::NodeAssignment a;
  a.nodes = {{4, 2, 6, 2, 2, 2, 2}};
  const index_t n_cpis = 24;

  // Every faulted run must reproduce the fault-free run bitwise, apart
  // from its recorded sheds.
  Scenario base;
  base.nodes = a.nodes;
  base.n_cpis = n_cpis;

  // --- fault-free baseline (Table-8 analogue on this host) -----------------
  bench::print_header("Fault tolerance on the host pipeline");
  const auto& ref = runner.reference(a.nodes, n_cpis);
  const core::PipelineResult& r0 = ref.r;
  const double period = ref.wall_s / static_cast<double>(n_cpis);
  const double deadline = std::max(5.0 * period, 0.05);
  const size_t base_dets = bench::chaos::total_detections(r0);
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
    Scenario sc = base;
    sc.name = "delay " + std::to_string(prob);
    sc.rules = {FaultPlan::delay_edge(core::kDopToEasyBf, comm::kTagStride,
                                      3.0 * deadline, prob)};
    sc.ft.shedding = true;
    sc.ft.cpi_deadline_seconds = deadline;
    const auto o = runner.run(sc, /*seed=*/42);
    const core::PipelineResult& r = o.r;
    const size_t dets = bench::chaos::total_detections(r);
    std::printf("%-12.2f %9.2f /s %9.1f%% %10zu %12zu\n", prob,
                r.throughput, 100.0 * r.throughput / r0.throughput,
                r.faults.shed_cpis.size(), dets);
    obs::Json row = bench::row(
        {{"kind", "delay_sweep"},
         {"delay_probability", prob},
         {"throughput_cpi_per_s", r.throughput},
         {"throughput_vs_baseline", r.throughput / r0.throughput},
         {"frames_delayed", r.events.count(core::EventKind::kFrameDelayed)},
         {"detections", dets}});
    bench::chaos::add_fields(row, o);
    bench::report_row(std::move(row));
  }

  // --- panel 2: corruption sweep (retransmission repairs silently) ---------
  std::printf("\n%-12s %12s %14s %14s %12s\n", "corrupt prob", "throughput",
              "corrupted", "retransmits", "detections");
  for (const double prob : {0.02, 0.10}) {
    Scenario sc = base;
    sc.name = "corrupt " + std::to_string(prob);
    comm::FaultRule rule;
    rule.type = comm::FaultType::kCorrupt;
    rule.probability = prob;
    sc.rules = {rule};
    sc.allow_shed = false;
    const auto o = runner.run(sc, /*seed=*/7);
    const core::PipelineResult& r = o.r;
    const size_t dets = bench::chaos::total_detections(r);
    std::printf("%-12.2f %9.2f /s %14llu %14llu %12zu\n", prob,
                r.throughput,
                static_cast<unsigned long long>(
                    r.events.count(core::EventKind::kFrameCorrupted)),
                static_cast<unsigned long long>(r.faults.retransmissions),
                dets);
    obs::Json row = bench::row(
        {{"kind", "corruption_sweep"},
         {"corrupt_probability", prob},
         {"throughput_cpi_per_s", r.throughput},
         {"frames_corrupted",
          r.events.count(core::EventKind::kFrameCorrupted)},
         {"detections", dets}});
    bench::chaos::add_fields(row, o);
    bench::report_row(std::move(row));
  }

  // --- panel 3: spare-rank failover vs the model's migration stall ---------
  {
    Scenario sc = base;
    sc.name = "failover";
    sc.rules = {FaultPlan::kill_on_recv(
        a.first_rank(stap::Task::kHardWeight),
        core::tag_for(n_cpis / 2, core::kDopToHardWt))};
    sc.ft.spares = 1;
    sc.spare_heals = 1;
    sc.allow_shed = false;
    const auto o = runner.run(sc, /*seed=*/0x5eedf417);  // FaultPlan's default
    const core::PipelineResult& r = o.r;

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
    if (o.ok()) {
      const core::Event ev = r.events.heals()[0];
      const size_t dets = bench::chaos::total_detections(r);
      std::printf("  recovered rank %d at CPI %ld, measured stall %.4f s "
                  "(model migration stall at paper scale: %.4f s)\n",
                  ev.rank, static_cast<long>(ev.cpi), ev.seconds,
                  model_stall);
      std::printf("  throughput %.2f CPI/s (%.1f%% of baseline), %zu "
                  "detections (baseline %zu)\n",
                  r.throughput, 100.0 * r.throughput / r0.throughput, dets,
                  base_dets);
      obs::Json row = bench::row(
          {{"kind", "failover"},
           {"killed_rank", ev.rank},
           {"resume_cpi", ev.cpi},
           {"recovery_stall_s", ev.seconds},
           {"model_migration_stall_s", model_stall},
           {"throughput_cpi_per_s", r.throughput},
           {"throughput_vs_baseline", r.throughput / r0.throughput},
           {"detections", dets}});
      bench::chaos::add_fields(row, o);
      bench::report_row(std::move(row));
    }
  }

  std::printf(
      "\nReading: shedding turns an unbounded stall into a bounded,\n"
      "accounted loss of the stalled CPIs; retransmission makes corruption\n"
      "invisible at the cost of a resend; and a dead weight rank costs one\n"
      "recovery stall comparable to the model's planned migration stall,\n"
      "after which the stream continues bit-exact.\n");
  return bench::report_finish(runner.failures() == 0 ? 0 : 1);
}
