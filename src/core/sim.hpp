// Discrete-event simulation of the parallel pipelined STAP system on the
// Paragon machine model.
//
// This is the instrument that regenerates the paper's evaluation (Tables
// 2-10, Figure 11) on hardware that no longer exists. The simulator runs
// the same seven-task pipeline structure as the real (threaded) pipeline —
// identical task graph, identical per-edge communication volumes (validated
// against the real pipeline's byte counters in tests), identical temporal
// dependency — but advances virtual time from the machine model instead of
// executing kernels:
//
//   * compute time  = analytic_flops(task) / (nodes * calibrated rate)
//   * visible send  = pack (collection/reorganization) + per-dest startup
//   * wire          = max(sender egress, receiver ingress) serialization
//   * visible recv  = wait-for-arrival (idle) + unpack
//
// All the paper's qualitative observations are *emergent* here: superlinear
// communication scaling (Tables 2-6), idle time appearing in the receive
// phase of tasks downstream of a bottleneck (Table 10), and the secondary
// effect that adding nodes to one task speeds up others (Table 9).
#pragma once

#include <array>
#include <vector>

#include "core/assignment.hpp"
#include "core/machine.hpp"
#include "core/pipeline.hpp"
#include "stap/params.hpp"

namespace ppstap::core {

// Endpoints and shape of each Fig. 4 edge (core::Edge, tags.hpp).
stap::Task edge_src(Edge e);
stap::Task edge_dst(Edge e);
const char* edge_name(Edge e);
/// True when the edge requires data collection or reorganization before
/// sending (partition dimensions differ across the edge) — paper §5.2/5.3.
bool edge_needs_reorg(Edge e);
/// True when the consumer uses the producer's output of the previous CPI.
bool edge_is_temporal(Edge e);

/// Send/recv phase times attributable to a single edge (Tables 2-6 report
/// these per task pair).
struct SimEdgeTiming {
  double send = 0.0;  ///< pack + post on the sending side
  double recv = 0.0;  ///< wait-for-arrival (idle) + unpack on the receiver
};

/// Replication of pipeline stages (the multi-stage technique of Lee &
/// Prasanna cited in §2, and the paper's "multiple pipelines" future
/// work): task i is instantiated `replicas[i]` times, each instance runs
/// on its own `assign[i]` nodes and handles every replicas[i]-th CPI.
/// Replication multiplies a stage's throughput without improving its
/// latency. Only stateless tasks may be replicated: the weight tasks carry
/// training state across consecutive CPIs (the temporal dependency), so
/// their replica count must be 1 — a design constraint the pipeline's
/// dataflow imposes, not an implementation limit.
struct ReplicationPlan {
  std::array<int, stap::kNumTasks> replicas{1, 1, 1, 1, 1, 1, 1};

  int operator[](stap::Task t) const {
    return replicas[static_cast<size_t>(t)];
  }
  int& operator[](stap::Task t) { return replicas[static_cast<size_t>(t)]; }

  /// Total nodes consumed by `assign` under this plan.
  int total_nodes(const NodeAssignment& assign) const {
    int sum = 0;
    for (int t = 0; t < stap::kNumTasks; ++t)
      sum += assign.nodes[static_cast<size_t>(t)] *
             replicas[static_cast<size_t>(t)];
    return sum;
  }

  void validate() const;
};

/// The pre-pipelining RTMCARM deployment (paper §2): whole CPIs are handed
/// to nodes round-robin; every node runs the full sequential chain.
/// Throughput scales with the node count, latency is pinned at the
/// single-node chain time — the limitation that motivates the paper.
struct RoundRobinResult {
  double throughput = 0.0;  ///< CPIs per second across all nodes
  double latency = 0.0;     ///< single-node full-chain time per CPI
};

/// Dynamic processor re-allocation (paper §8: "a well designed system
/// should be able to handle any changes in the requirements on the
/// response time by dynamically allocating or re-allocating processors
/// among tasks"). The pipeline runs under `before` up to (excluding)
/// `switch_cpi`, pauses to migrate the adaptive weight state (the easy
/// training history and the hard triangular factors are the only state
/// that must move), then continues under `after`.
struct ReallocationPlan {
  NodeAssignment before;
  NodeAssignment after;
  index_t switch_cpi = 0;  ///< first CPI processed under `after`
};

struct DynamicSimResult {
  double throughput_before = 0.0;
  double throughput_after = 0.0;
  double latency_before = 0.0;
  double latency_after = 0.0;
  /// Weight-state migration time charged at the switch (a global stall).
  double migration_stall = 0.0;
  /// Completion time of every CPI (for transient inspection).
  std::vector<double> completion;
};

struct SimResult {
  std::array<TaskTiming, stap::kNumTasks> timing{};
  std::array<SimEdgeTiming, kNumPipelineEdges> edges{};
  double throughput_measured = 0.0;  ///< sink inter-completion rate
  double latency_measured = 0.0;     ///< input arrival -> detection report
  double throughput_equation = 0.0;  ///< eq. (1): 1 / max_i T_i
  double latency_equation = 0.0;     ///< eq. (2): T0 + max(T3,T4) + T5 + T6
};

class PipelineSimulator {
 public:
  PipelineSimulator(const stap::StapParams& p, const ParagonParams& machine);

  /// Total bytes per CPI crossing edge `e` (all node pairs combined). The
  /// same quantity the real pipeline's byte counters measure.
  double edge_volume_bytes(Edge e) const;

  /// Simulate `num_cpis` CPIs; phase times average the middle CPIs.
  SimResult simulate(const NodeAssignment& assign, index_t num_cpis = 25,
                     index_t warmup = 3, index_t cooldown = 2) const;

  /// Simulate with replicated pipeline stages (see ReplicationPlan).
  SimResult simulate_replicated(const NodeAssignment& assign,
                                const ReplicationPlan& plan,
                                index_t num_cpis = 25, index_t warmup = 3,
                                index_t cooldown = 2) const;

  /// The round-robin (non-pipelined) deployment baseline on `nodes` nodes.
  RoundRobinResult round_robin(int nodes) const;

  /// Simulate a mid-stream processor re-allocation (see ReallocationPlan).
  /// `warmup` CPIs are excluded at the start of each phase's averages.
  DynamicSimResult simulate_reallocation(const ReallocationPlan& plan,
                                         index_t num_cpis,
                                         index_t warmup = 3) const;

  /// Bytes of adaptive state that must migrate on re-allocation: the easy
  /// training history plus the hard bins' triangular factors.
  double weight_state_bytes() const;

  /// Compute time of one task on `nodes` nodes (Fig. 11's quantity). The
  /// model accounts for work-item granularity: a task with W independent
  /// items (bins, range cells, units) on P nodes runs in time proportional
  /// to ceil(W / P) — the load imbalance visible in the paper's own
  /// measurements (e.g. easy weights speed up by 1.79x, not 2x, from 8 to
  /// 16 nodes because 72 bins split 5/4).
  double compute_time(stap::Task t, int nodes) const;

  /// Independent work items of a task under the current parameters.
  index_t work_items(stap::Task t) const;

  /// The non-idle per-CPI time of a task: input/unpack + compute + pack +
  /// post. In steady state the pipeline period is max_i intrinsic_time(i),
  /// which makes this the objective for throughput-oriented assignment.
  double intrinsic_time(stap::Task t, const NodeAssignment& assign) const;

  const stap::StapParams& params() const { return p_; }
  const ParagonParams& machine() const { return m_; }

 private:
  stap::StapParams p_;
  ParagonParams m_;
};

/// Greedy node-assignment search: distribute `total_nodes` to maximize
/// throughput (minimize the slowest task) under the machine model. Every
/// task keeps at least one node; counts are capped by the per-task work
/// item limits of NodeAssignment::validate.
NodeAssignment assign_for_throughput(const PipelineSimulator& sim,
                                     int total_nodes);

/// Greedy node-assignment search minimizing simulated latency subject to a
/// throughput floor (CPIs/second); pass 0 for unconstrained latency
/// minimization.
NodeAssignment assign_for_latency(const PipelineSimulator& sim,
                                  int total_nodes, double min_throughput);

}  // namespace ppstap::core
