// Tests for the Paragon machine model and the discrete-event pipeline
// simulator: calibration, linear-speedup invariants, communication volume
// agreement with the real threaded pipeline, and reproduction of the
// paper's qualitative results (Tables 7-10 trends).
#include <gtest/gtest.h>

#include "core/machine.hpp"
#include "core/pipeline.hpp"
#include "core/sim.hpp"
#include "synth/steering.hpp"

namespace ppstap::core {
namespace {

using stap::StapParams;
using stap::Task;

PipelineSimulator paper_sim() {
  return PipelineSimulator(StapParams{}, ParagonParams::calibrated());
}

TEST(Machine, CalibrationReproducesPaperComputeTimes) {
  auto sim = paper_sim();
  // Paper Table 7, all three cases: compute time for each (task, nodes).
  struct Obs {
    Task task;
    int nodes;
    double seconds;
  };
  const Obs obs[] = {
      {Task::kDopplerFilter, 32, 0.0874},  {Task::kDopplerFilter, 16, 0.1714},
      {Task::kDopplerFilter, 8, 0.3509},   {Task::kEasyWeight, 16, 0.0913},
      {Task::kEasyWeight, 8, 0.1636},      {Task::kEasyWeight, 4, 0.3254},
      {Task::kHardWeight, 112, 0.0831},    {Task::kHardWeight, 56, 0.1636},
      {Task::kHardWeight, 28, 0.3265},     {Task::kEasyBeamform, 16, 0.0708},
      {Task::kEasyBeamform, 8, 0.1267},    {Task::kEasyBeamform, 4, 0.2529},
      {Task::kHardBeamform, 28, 0.0414},   {Task::kHardBeamform, 14, 0.0822},
      {Task::kHardBeamform, 7, 0.1636},    {Task::kPulseCompression, 16, 0.0776},
      {Task::kPulseCompression, 8, 0.1543}, {Task::kPulseCompression, 4, 0.3067},
      {Task::kCfar, 16, 0.0434},           {Task::kCfar, 8, 0.0864},
      {Task::kCfar, 4, 0.1723},
  };
  for (const auto& o : obs) {
    const double sim_t = sim.compute_time(o.task, o.nodes);
    // Within 7% of every measurement in the paper (the rates are fitted on
    // case 1 only; cases 2 and 3 validate the linear-speedup premise).
    EXPECT_NEAR(sim_t / o.seconds, 1.0, 0.07)
        << stap::task_name(o.task) << " on " << o.nodes << " nodes";
  }
}

TEST(Machine, ComputeModelFollowsWorkItemGranularity) {
  // time(P) = ceil(items / P) * per-item time: exactly linear when P
  // divides the item count, and stepwise (load imbalance) otherwise.
  auto sim = paper_sim();
  for (int t = 0; t < stap::kNumTasks; ++t) {
    const auto task = static_cast<Task>(t);
    const auto items = sim.work_items(task);
    const double t1 = sim.compute_time(task, 1);
    const double per_item = t1 / static_cast<double>(items);
    for (int n : {2, 3, 4, 7, 8, 16}) {
      const auto expected =
          static_cast<double>((items + n - 1) / n) * per_item;
      EXPECT_NEAR(sim.compute_time(task, n), expected, 1e-12 + 1e-9 * t1)
          << stap::task_name(task) << " n=" << n;
    }
    // Perfect halving when the partition is even.
    EXPECT_NEAR(sim.compute_time(task, 2) * 2.0, t1, 1e-9 * t1);
  }
}

TEST(Sim, EdgeMetadataIsConsistent) {
  for (int e = 0; e < kNumPipelineEdges; ++e) {
    const auto edge = static_cast<Edge>(e);
    EXPECT_NE(edge_src(edge), edge_dst(edge));
    EXPECT_NE(edge_name(edge), nullptr);
  }
  // Temporal edges are exactly the weight->beamform pair.
  EXPECT_TRUE(edge_is_temporal(Edge::kEasyWtToBf));
  EXPECT_TRUE(edge_is_temporal(Edge::kHardWtToBf));
  EXPECT_FALSE(edge_is_temporal(Edge::kDopToEasyBf));
  EXPECT_FALSE(edge_is_temporal(Edge::kPcToCfar));
  // Reorganization is needed exactly on the Doppler fan-out (partition
  // dimension changes from K to N there, and only there).
  for (auto e : {Edge::kDopToEasyWt, Edge::kDopToHardWt,
                 Edge::kDopToEasyBf, Edge::kDopToHardBf})
    EXPECT_TRUE(edge_needs_reorg(e));
  for (auto e : {Edge::kEasyWtToBf, Edge::kHardWtToBf,
                 Edge::kEasyBfToPc, Edge::kHardBfToPc,
                 Edge::kPcToCfar})
    EXPECT_FALSE(edge_needs_reorg(e));
}

TEST(Sim, EdgeVolumesMatchRealPipelineByteCounters) {
  // The machine model's communication volumes must equal what the real
  // threaded pipeline actually sends, per Fig. 4 edge.
  StapParams p = StapParams::small_test();
  p.num_range = 48;
  p.num_channels = 4;
  p.num_pulses = 16;
  p.num_beams = 2;
  p.num_hard = 6;
  p.num_segments = 2;
  p.easy_samples_per_cpi = 12;
  p.hard_samples_per_segment = 10;
  p.validate();

  synth::ScenarioParams sp;
  sp.num_range = p.num_range;
  sp.num_channels = p.num_channels;
  sp.num_pulses = p.num_pulses;
  sp.clutter.num_patches = 4;
  sp.chirp_length = 0;
  synth::ScenarioGenerator gen(sp);
  auto steering = synth::steering_matrix(p.num_channels, p.num_beams,
                                         p.beam_center_rad, p.beam_span_rad);
  NodeAssignment a{{3, 2, 4, 2, 2, 2, 2}};
  ParallelStapPipeline pipe(p, a, steering, {});
  auto result = pipe.run(gen, 5, 1, 1);

  PipelineSimulator sim(p, ParagonParams::calibrated());
  for (int e = 0; e < kNumPipelineEdges; ++e) {
    const auto edge = static_cast<Edge>(e);
    const double expected = sim.edge_volume_bytes(edge);
    EXPECT_GT(expected, 0.0) << edge_name(edge);
    EXPECT_NEAR(result.bytes_per_edge_per_cpi[static_cast<size_t>(e)],
                expected, 1e-6 * expected)
        << edge_name(edge);
  }
}

TEST(Sim, ReproducesPaperTable8Trends) {
  auto sim = paper_sim();
  const auto c1 = sim.simulate(NodeAssignment::paper_case1());
  const auto c2 = sim.simulate(NodeAssignment::paper_case2());
  const auto c3 = sim.simulate(NodeAssignment::paper_case3());

  // Paper Table 8: throughput 7.27 / 3.80 / 1.99, latency .362/.681/1.353.
  EXPECT_NEAR(c1.throughput_measured, 7.27, 7.27 * 0.10);
  EXPECT_NEAR(c2.throughput_measured, 3.80, 3.80 * 0.10);
  EXPECT_NEAR(c3.throughput_measured, 1.99, 1.99 * 0.10);
  EXPECT_NEAR(c1.latency_measured, 0.362, 0.362 * 0.12);
  EXPECT_NEAR(c2.latency_measured, 0.681, 0.681 * 0.12);
  EXPECT_NEAR(c3.latency_measured, 1.353, 1.353 * 0.12);

  // Linear scalability: doubling nodes ~doubles throughput, ~halves
  // latency (the headline claim).
  EXPECT_NEAR(c1.throughput_measured / c2.throughput_measured, 2.0, 0.25);
  EXPECT_NEAR(c2.throughput_measured / c3.throughput_measured, 2.0, 0.25);
  EXPECT_NEAR(c2.latency_measured / c1.latency_measured, 2.0, 0.25);
  EXPECT_NEAR(c3.latency_measured / c2.latency_measured, 2.0, 0.25);

  // Real latency is below the equation-(2) upper bound (paper §7.3).
  EXPECT_LT(c1.latency_measured, c1.latency_equation);
  EXPECT_LT(c2.latency_measured, c2.latency_equation);
  EXPECT_LT(c3.latency_measured, c3.latency_equation);
}

TEST(Sim, Table9AddingDopplerNodesHelpsOtherTasks) {
  // The paper's headline secondary effect: +4 Doppler nodes (3% more
  // nodes) improves both throughput and latency, and *reduces the receive
  // time of downstream tasks* without adding nodes to them.
  auto sim = paper_sim();
  const auto base = sim.simulate(NodeAssignment::paper_case2());
  const auto more = sim.simulate(NodeAssignment::paper_table9());

  EXPECT_GT(more.throughput_measured, base.throughput_measured * 1.15);
  EXPECT_LT(more.latency_measured, base.latency_measured * 0.95);
  // Downstream tasks' recv shrinks though their node counts are unchanged.
  for (auto t : {Task::kEasyWeight, Task::kHardWeight, Task::kEasyBeamform,
                 Task::kPulseCompression}) {
    EXPECT_LT(more.timing[static_cast<size_t>(t)].recv,
              base.timing[static_cast<size_t>(t)].recv)
        << stap::task_name(t);
  }
}

TEST(Sim, Table10WeightBottleneckCapsThroughput) {
  // +16 nodes on PC/CFAR on top of Table 9: throughput must NOT improve
  // (the weight tasks are the bottleneck) while latency improves (the last
  // two tasks are on the latency path).
  auto sim = paper_sim();
  const auto t9 = sim.simulate(NodeAssignment::paper_table9());
  const auto t10 = sim.simulate(NodeAssignment::paper_table10());

  EXPECT_LT(t10.throughput_measured, t9.throughput_measured * 1.05);
  EXPECT_LT(t10.latency_measured, t9.latency_measured * 0.90);
  // The extra PC/CFAR nodes show up as idle time: their recv grows.
  EXPECT_GT(t10.timing[static_cast<size_t>(Task::kPulseCompression)].recv,
            t9.timing[static_cast<size_t>(Task::kPulseCompression)].recv);
  EXPECT_GT(t10.timing[static_cast<size_t>(Task::kCfar)].recv,
            t9.timing[static_cast<size_t>(Task::kCfar)].recv);
}

TEST(Sim, CommunicationScalesSuperlinearlyWithSenderNodes) {
  // Paper Table 2 setting: Doppler 8 -> 32 nodes with fixed successors.
  // The visible send (collection + reorganization per node) shrinks
  // ~proportionally (paper: .1332 -> .0340), and the successors' receive
  // idle collapses superlinearly (paper easy wt: .4339 -> .0511).
  auto sim = paper_sim();
  NodeAssignment small{{8, 16, 56, 16, 16, 16, 8}};
  NodeAssignment medium{{16, 16, 56, 16, 16, 16, 8}};
  NodeAssignment large{{32, 16, 56, 16, 16, 16, 8}};
  const auto rs = sim.simulate(small);
  const auto rm = sim.simulate(medium);
  const auto rl = sim.simulate(large);
  const auto doppler = static_cast<size_t>(Task::kDopplerFilter);
  // Visible send halves with doubled sender nodes while the sender stays
  // on the pipeline's critical path (paper: .1332 -> .0679).
  EXPECT_GT(rs.timing[doppler].send / rm.timing[doppler].send, 1.8);
  // Receive side of Doppler -> easy weight: superlinear (> 4x from a 4x
  // node increase; paper: .4339 -> .0511).
  const auto e = static_cast<size_t>(Edge::kDopToEasyWt);
  EXPECT_GT(rs.edges[e].recv / rl.edges[e].recv, 4.0);
}

TEST(Sim, ThroughputEquationMatchesMeasuredInSteadyState) {
  auto sim = paper_sim();
  for (const auto& a :
       {NodeAssignment::paper_case1(), NodeAssignment::paper_case2(),
        NodeAssignment::paper_case3()}) {
    const auto r = sim.simulate(a);
    EXPECT_NEAR(r.throughput_measured, r.throughput_equation,
                0.02 * r.throughput_equation);
  }
}

TEST(Sim, MoreCpisDoNotChangeSteadyStateAverages) {
  auto sim = paper_sim();
  const auto a = sim.simulate(NodeAssignment::paper_case2(), 15, 3, 2);
  const auto b = sim.simulate(NodeAssignment::paper_case2(), 40, 3, 2);
  EXPECT_NEAR(a.throughput_measured, b.throughput_measured,
              0.02 * b.throughput_measured);
  EXPECT_NEAR(a.latency_measured, b.latency_measured,
              0.05 * b.latency_measured);
}

TEST(Sim, AssignmentSearchBeatsNaiveEvenSplit) {
  auto sim = paper_sim();
  const int total = 118;
  const auto tuned = assign_for_throughput(sim, total);
  EXPECT_LE(tuned.total(), total);
  // Even split across the seven tasks (16,17,...) as the naive baseline.
  NodeAssignment even{{17, 17, 17, 17, 17, 16, 17}};
  const auto r_tuned = sim.simulate(tuned);
  const auto r_even = sim.simulate(even);
  EXPECT_GT(r_tuned.throughput_measured, r_even.throughput_measured * 1.2);
}

TEST(Sim, AssignmentSearchRecoversPaperShape) {
  // The greedy search at 118 nodes should give the hard weight task the
  // lion's share, like the paper's hand assignment (56 of 118).
  auto sim = paper_sim();
  const auto tuned = assign_for_throughput(sim, 118);
  const int hard = tuned[Task::kHardWeight];
  for (int t = 0; t < stap::kNumTasks; ++t) {
    if (static_cast<Task>(t) == Task::kHardWeight) continue;
    EXPECT_GE(hard, tuned.nodes[static_cast<size_t>(t)]);
  }
  EXPECT_GE(hard, 30);
}

TEST(Sim, LatencySearchRespectsThroughputFloor) {
  auto sim = paper_sim();
  const auto a = assign_for_latency(sim, 118, 3.5);
  const auto r = sim.simulate(a);
  EXPECT_GE(r.throughput_measured, 3.5 * 0.98);
}

TEST(RoundRobin, LatencyIsNodeCountIndependent) {
  auto sim = paper_sim();
  const auto r25 = sim.round_robin(25);
  const auto r100 = sim.round_robin(100);
  EXPECT_DOUBLE_EQ(r25.latency, r100.latency);
  EXPECT_NEAR(r100.throughput, 4.0 * r25.throughput, 1e-9);
}

TEST(RoundRobin, PipelinedBeatsRoundRobinLatencyAtEqualNodes) {
  // The paper's motivation (§1/§2): round-robin can match throughput by
  // adding nodes but its latency is pinned at the one-node chain time; the
  // pipelined system with the same nodes is an order of magnitude faster
  // to answer.
  auto sim = paper_sim();
  const auto rr = sim.round_robin(118);
  const auto pipe = sim.simulate(NodeAssignment::paper_case2());
  EXPECT_LT(pipe.latency_measured, rr.latency / 10.0);
  // Single-node chain time is the sum of all task compute times.
  double chain = 0.0;
  for (int t = 0; t < stap::kNumTasks; ++t)
    chain += sim.compute_time(static_cast<Task>(t), 1);
  EXPECT_GT(rr.latency, chain);
}

TEST(Replication, StrideSemanticsMultiplyStageThroughput) {
  // Build a pipeline where pulse compression is the clear bottleneck, then
  // replicate it: throughput should approach the 2x of the stage rate.
  auto sim = paper_sim();
  NodeAssignment a{{32, 16, 112, 16, 28, 2, 16}};  // PC starved
  const auto base = sim.simulate(a);
  ReplicationPlan plan;
  plan[Task::kPulseCompression] = 2;
  const auto rep = sim.simulate_replicated(a, plan);
  EXPECT_GT(rep.throughput_measured, 1.5 * base.throughput_measured);
  // Replication does not shorten the stage itself: latency gains, if any,
  // are second-order, and the plan costs extra nodes.
  EXPECT_EQ(plan.total_nodes(a), a.total() + 2);
}

TEST(Replication, ReplicatingANonBottleneckStageDoesNothing) {
  auto sim = paper_sim();
  NodeAssignment a = NodeAssignment::paper_case2();
  ReplicationPlan plan;
  plan[Task::kCfar] = 2;  // CFAR is not the bottleneck in case 2
  const auto base = sim.simulate(a);
  const auto rep = sim.simulate_replicated(a, plan);
  EXPECT_NEAR(rep.throughput_measured, base.throughput_measured,
              0.05 * base.throughput_measured);
}

TEST(Replication, DefaultPlanMatchesPlainSimulate) {
  auto sim = paper_sim();
  const auto a = NodeAssignment::paper_case3();
  const auto plain = sim.simulate(a);
  const auto rep = sim.simulate_replicated(a, ReplicationPlan{});
  EXPECT_DOUBLE_EQ(plain.throughput_measured, rep.throughput_measured);
  EXPECT_DOUBLE_EQ(plain.latency_measured, rep.latency_measured);
}

TEST(Replication, WeightTasksCannotBeReplicated) {
  ReplicationPlan plan;
  plan[Task::kEasyWeight] = 2;
  EXPECT_THROW(plan.validate(), Error);
  ReplicationPlan plan2;
  plan2[Task::kHardWeight] = 3;
  EXPECT_THROW(plan2.validate(), Error);
  ReplicationPlan plan3;
  plan3[Task::kDopplerFilter] = 0;
  EXPECT_THROW(plan3.validate(), Error);
}

TEST(Sim, BeamPositionsRelaxTheTemporalEdge) {
  // With B transmit positions the weights for CPI t were computed B CPIs
  // ago, so the beamformers never wait on the weight tasks; throughput and
  // latency can only improve (or stay equal) relative to B = 1.
  stap::StapParams p1;
  stap::StapParams p5 = p1;
  p5.num_beam_positions = 5;
  const auto m = ParagonParams::calibrated();
  PipelineSimulator sim1(p1, m), sim5(p5, m);
  const auto a = NodeAssignment::paper_case2();
  const auto r1 = sim1.simulate(a);
  const auto r5 = sim5.simulate(a);
  EXPECT_GE(r5.throughput_measured, r1.throughput_measured * 0.999);
  EXPECT_LE(r5.latency_measured, r1.latency_measured * 1.001);
}

TEST(Replication, ComposesWithBeamPositions) {
  stap::StapParams p;
  p.num_beam_positions = 3;
  PipelineSimulator sim(p, ParagonParams::calibrated());
  NodeAssignment a{{32, 16, 112, 16, 28, 2, 16}};  // PC starved
  ReplicationPlan plan;
  plan[Task::kPulseCompression] = 2;
  const auto base = sim.simulate(a);
  const auto rep = sim.simulate_replicated(a, plan);
  EXPECT_GT(rep.throughput_measured, 1.5 * base.throughput_measured);
}

TEST(Reallocation, ReachesTheNewSteadyState) {
  auto sim = paper_sim();
  ReallocationPlan plan;
  plan.before = NodeAssignment::paper_case3();
  plan.after = NodeAssignment::paper_case2();
  plan.switch_cpi = 12;
  const auto r = sim.simulate_reallocation(plan, 25);

  const auto s_before = sim.simulate(plan.before);
  const auto s_after = sim.simulate(plan.after);
  EXPECT_NEAR(r.throughput_before, s_before.throughput_measured,
              0.03 * s_before.throughput_measured);
  EXPECT_NEAR(r.throughput_after, s_after.throughput_measured,
              0.03 * s_after.throughput_measured);
  EXPECT_NEAR(r.latency_after, s_after.latency_measured,
              0.05 * s_after.latency_measured);
  EXPECT_GT(r.migration_stall, 0.0);
  // The transient at the switch: one elongated completion gap, then the
  // new period.
  const double gap_sw = r.completion[12] - r.completion[11];
  const double gap_after = r.completion[15] - r.completion[14];
  EXPECT_GT(gap_sw, gap_after);
}

TEST(Reallocation, DowngradeAlsoWorks) {
  auto sim = paper_sim();
  ReallocationPlan plan;
  plan.before = NodeAssignment::paper_case1();
  plan.after = NodeAssignment::paper_case3();
  plan.switch_cpi = 10;
  const auto r = sim.simulate_reallocation(plan, 22);
  EXPECT_GT(r.throughput_before, 2.0 * r.throughput_after);
  EXPECT_LT(r.latency_before, r.latency_after);
}

TEST(Reallocation, StateVolumeIsSmall) {
  auto sim = paper_sim();
  // Paper configuration: the migratable adaptive state is a couple of MB —
  // far below one CPI data cube (K*J*N*8 = 8.4 MB).
  EXPECT_LT(sim.weight_state_bytes(), 4e6);
  EXPECT_GT(sim.weight_state_bytes(), 1e5);
}

TEST(Reallocation, RejectsBadSwitchPoints) {
  auto sim = paper_sim();
  ReallocationPlan plan;
  plan.before = NodeAssignment::paper_case3();
  plan.after = NodeAssignment::paper_case2();
  plan.switch_cpi = 2;  // inside the warmup window
  EXPECT_THROW(sim.simulate_reallocation(plan, 25), Error);
  plan.switch_cpi = 24;  // no measured window after
  EXPECT_THROW(sim.simulate_reallocation(plan, 25), Error);
}

TEST(Sim, RejectsInvalidInputs) {
  auto sim = paper_sim();
  EXPECT_THROW(sim.simulate(NodeAssignment::paper_case1(), 4, 3, 2), Error);
  ParagonParams bad = ParagonParams::calibrated();
  bad.task_flops_per_s[0] = 0.0;
  EXPECT_THROW(PipelineSimulator(StapParams{}, bad), Error);
  EXPECT_THROW(sim.compute_time(Task::kCfar, 0), Error);
}

}  // namespace
}  // namespace ppstap::core
