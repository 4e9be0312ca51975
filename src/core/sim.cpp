#include "core/sim.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "stap/flops.hpp"

namespace ppstap::core {

using stap::Task;

namespace {

struct EdgeInfo {
  Task src;
  Task dst;
  const char* name;
  bool reorg;
  bool temporal;
};

constexpr std::array<EdgeInfo, kNumPipelineEdges> kEdges = {{
    {Task::kDopplerFilter, Task::kEasyWeight, "Doppler->easy weight", true,
     false},
    {Task::kDopplerFilter, Task::kHardWeight, "Doppler->hard weight", true,
     false},
    {Task::kDopplerFilter, Task::kEasyBeamform, "Doppler->easy BF", true,
     false},
    {Task::kDopplerFilter, Task::kHardBeamform, "Doppler->hard BF", true,
     false},
    {Task::kEasyWeight, Task::kEasyBeamform, "easy weight->easy BF", false,
     true},
    {Task::kHardWeight, Task::kHardBeamform, "hard weight->hard BF", false,
     true},
    {Task::kEasyBeamform, Task::kPulseCompression, "easy BF->pulse compr",
     false, false},
    {Task::kHardBeamform, Task::kPulseCompression, "hard BF->pulse compr",
     false, false},
    {Task::kPulseCompression, Task::kCfar, "pulse compr->CFAR", false,
     false},
}};

const EdgeInfo& info(Edge e) { return kEdges[static_cast<size_t>(e)]; }

// All per-edge and per-task timing constants for one node assignment.
struct Constants {
  std::array<double, kNumPipelineEdges> wire{}, pack{}, post{}, unpack{};
  std::array<double, stap::kNumTasks> comp{}, pack_total{}, post_total{},
      unpack_total{};
  double input_time = 0.0;  // Doppler front-end ingest per node
};

}  // namespace

Task edge_src(Edge e) { return info(e).src; }
Task edge_dst(Edge e) { return info(e).dst; }
const char* edge_name(Edge e) { return info(e).name; }
bool edge_needs_reorg(Edge e) { return info(e).reorg; }
bool edge_is_temporal(Edge e) { return info(e).temporal; }

PipelineSimulator::PipelineSimulator(const stap::StapParams& p,
                                     const ParagonParams& machine)
    : p_(p), m_(machine) {
  p_.validate();
  for (double r : m_.task_flops_per_s)
    PPSTAP_REQUIRE(r > 0.0, "machine model needs positive compute rates");
}

double PipelineSimulator::edge_volume_bytes(Edge e) const {
  const double cx = 8.0;  // complex<float>
  const double re = 4.0;  // float
  const auto k = static_cast<double>(p_.num_range);
  const auto j = static_cast<double>(p_.num_channels);
  const auto n = static_cast<double>(p_.num_pulses);
  const auto m = static_cast<double>(p_.num_beams);
  const auto ne = static_cast<double>(p_.num_easy());
  const auto nh = static_cast<double>(p_.num_hard);
  const auto s = static_cast<double>(p_.num_segments);
  switch (e) {
    case Edge::kDopToEasyWt:
      return ne * static_cast<double>(p_.easy_samples_per_cpi) * j * cx;
    case Edge::kDopToHardWt:
      return nh * s * static_cast<double>(p_.hard_samples_per_segment) *
             2.0 * j * cx;
    case Edge::kDopToEasyBf:
      return ne * k * j * cx;
    case Edge::kDopToHardBf:
      return nh * k * 2.0 * j * cx;
    case Edge::kEasyWtToBf:
      return ne * j * m * cx;
    case Edge::kHardWtToBf:
      return nh * s * 2.0 * j * m * cx;
    case Edge::kEasyBfToPc:
      return ne * m * k * cx;
    case Edge::kHardBfToPc:
      return nh * m * k * cx;
    case Edge::kPcToCfar:
      return n * m * k * re;
  }
  PPSTAP_CHECK(false, "unknown edge");
  return 0.0;
}

index_t PipelineSimulator::work_items(Task t) const {
  switch (t) {
    case Task::kDopplerFilter:
      return p_.num_range;
    case Task::kEasyWeight:
    case Task::kEasyBeamform:
      return p_.num_easy();
    case Task::kHardWeight:
      return p_.num_hard * p_.num_segments;
    case Task::kHardBeamform:
      return p_.num_hard;
    case Task::kPulseCompression:
    case Task::kCfar:
      return p_.num_pulses;
  }
  PPSTAP_CHECK(false, "unknown task");
  return 1;
}

double PipelineSimulator::compute_time(Task t, int nodes) const {
  PPSTAP_REQUIRE(nodes >= 1, "need at least one node");
  const auto items = work_items(t);
  const index_t per_node =
      (items + static_cast<index_t>(nodes) - 1) / static_cast<index_t>(nodes);
  const double per_item =
      static_cast<double>(stap::analytic_flops(t, p_)) /
      (static_cast<double>(items) *
       m_.task_flops_per_s[static_cast<size_t>(t)]);
  return static_cast<double>(per_node) * per_item;
}

namespace {

Constants build_constants(const PipelineSimulator& sim,
                          const stap::StapParams& p, const ParagonParams& m,
                          const NodeAssignment& assign) {
  Constants c;
  const auto nodes = [&](Task t) { return static_cast<double>(assign[t]); };

  for (int ei = 0; ei < kNumPipelineEdges; ++ei) {
    const auto e = static_cast<Edge>(ei);
    const auto& inf = kEdges[static_cast<size_t>(ei)];
    const double vol = sim.edge_volume_bytes(e);
    const double ps = nodes(inf.src), pd = nodes(inf.dst);
    // Wire: sender egress vs receiver ingress serialization; the max
    // captures contention when node counts are unbalanced.
    const double egress = pd * m.startup_s + vol / ps * m.per_byte_s;
    const double ingress = ps * m.startup_s + vol / pd * m.per_byte_s;
    c.wire[static_cast<size_t>(ei)] = std::max(egress, ingress);
    const double reorg = inf.reorg ? 1.0 : m.contiguous_copy_factor;
    c.pack[static_cast<size_t>(ei)] = m.pack_per_byte_s * vol / ps * reorg;
    c.post[static_cast<size_t>(ei)] = pd * m.startup_s;
    c.unpack[static_cast<size_t>(ei)] =
        m.unpack_per_byte_s * vol / pd * reorg;
    c.pack_total[static_cast<size_t>(inf.src)] +=
        c.pack[static_cast<size_t>(ei)];
    c.post_total[static_cast<size_t>(inf.src)] +=
        c.post[static_cast<size_t>(ei)];
    c.unpack_total[static_cast<size_t>(inf.dst)] +=
        c.unpack[static_cast<size_t>(ei)];
  }
  for (int t = 0; t < stap::kNumTasks; ++t)
    c.comp[static_cast<size_t>(t)] =
        sim.compute_time(static_cast<Task>(t),
                         assign[static_cast<Task>(t)]);
  c.input_time =
      static_cast<double>(p.num_range * p.num_channels * p.num_pulses) * 8.0 /
      nodes(Task::kDopplerFilter) * m.input_per_byte_s;
  return c;
}

double intrinsic_of(const Constants& c, Task t) {
  const auto i = static_cast<size_t>(t);
  const double in =
      t == Task::kDopplerFilter ? c.input_time : c.unpack_total[i];
  return in + c.comp[i] + c.pack_total[i] + c.post_total[i];
}

}  // namespace

double PipelineSimulator::intrinsic_time(Task t,
                                         const NodeAssignment& assign) const {
  assign.validate(p_);
  return intrinsic_of(build_constants(*this, p_, m_, assign), t);
}

void ReplicationPlan::validate() const {
  for (int r : replicas)
    PPSTAP_REQUIRE(r >= 1, "replica counts must be at least 1");
  PPSTAP_REQUIRE((*this)[stap::Task::kEasyWeight] == 1 &&
                     (*this)[stap::Task::kHardWeight] == 1,
                 "weight tasks carry training state across CPIs and cannot "
                 "be replicated");
}

SimResult PipelineSimulator::simulate(const NodeAssignment& assign,
                                      index_t num_cpis, index_t warmup,
                                      index_t cooldown) const {
  return simulate_replicated(assign, ReplicationPlan{}, num_cpis, warmup,
                             cooldown);
}

RoundRobinResult PipelineSimulator::round_robin(int nodes) const {
  PPSTAP_REQUIRE(nodes >= 1, "need at least one node");
  // One node runs the whole chain on a whole CPI: no inter-task
  // communication, just the input ingest plus every task's compute.
  double chain = static_cast<double>(p_.num_range * p_.num_channels *
                                     p_.num_pulses) *
                 8.0 * m_.input_per_byte_s;
  for (int t = 0; t < stap::kNumTasks; ++t)
    chain += compute_time(static_cast<Task>(t), 1);
  return RoundRobinResult{static_cast<double>(nodes) / chain, chain};
}

SimResult PipelineSimulator::simulate_replicated(const NodeAssignment& assign,
                                                 const ReplicationPlan& plan,
                                                 index_t num_cpis,
                                                 index_t warmup,
                                                 index_t cooldown) const {
  assign.validate(p_);
  plan.validate();
  PPSTAP_REQUIRE(num_cpis > warmup + cooldown,
                 "need at least one measured CPI");

  const Constants c = build_constants(*this, p_, m_, assign);

  // When tracing is on, the simulator emits the same span vocabulary as
  // the live pipeline — phase triples per (task, CPI) with rank = task
  // index, plus one "xfer" flow span per edge message — so the
  // critical-path analyzer works identically on simulated (Table 8/9/10)
  // and live traces. Only measured CPIs are emitted.
  const bool tracing = obs::tracing_enabled();
  if (tracing)
    for (int ti = 0; ti < stap::kNumTasks; ++ti)
      obs::set_track_name(ti, stap::task_name(static_cast<Task>(ti)));

  const auto n = static_cast<size_t>(num_cpis);
  std::array<std::vector<double>, stap::kNumTasks> loop_start, send_end;
  for (auto& v : loop_start) v.assign(n, 0.0);
  for (auto& v : send_end) v.assign(n, 0.0);

  std::array<TaskTiming, stap::kNumTasks> timing{};
  std::array<SimEdgeTiming, kNumPipelineEdges> edge_timing{};
  std::vector<double> completion(n, 0.0), latency(n, 0.0);

  const auto measured = [&](size_t t) {
    return static_cast<index_t>(t) >= warmup &&
           static_cast<index_t>(t) < num_cpis - cooldown;
  };
  const auto measured_count =
      static_cast<double>(num_cpis - warmup - cooldown);

  // Delivery semantics (Fig. 10 + rendezvous): a message completes
  // delivery when the receiver reaches the loop that consumes it (large
  // messages rendezvous with the posted receive), and a sender entering
  // loop t must wait for its loop t-1 messages to complete (line 14)
  // before reusing the double buffer. The wait is what makes a *fast,
  // over-provisioned sender feeding a slow receiver* show idle time in its
  // visible send phase — the send spikes of paper Tables 3, 4 and 6.
  //
  // Message from src loop m on edge e is consumed at
  //   dst loop m      (spatial edges)
  //   dst loop m + B  (temporal edges: weights for the next revisit of the
  //                    same transmit position, B = num_beam_positions)
  const auto temporal_stride =
      static_cast<std::ptrdiff_t>(p_.num_beam_positions);
  const auto gate = [&](int ei, std::ptrdiff_t m,
                        const std::array<std::vector<double>,
                                         stap::kNumTasks>& ls) {
    const auto& inf = kEdges[static_cast<size_t>(ei)];
    const std::ptrdiff_t idx = inf.temporal ? m + temporal_stride : m;
    if (idx < 0) return 0.0;
    const auto& v = ls[static_cast<size_t>(inf.dst)];
    if (static_cast<size_t>(idx) >= v.size()) return 0.0;
    return v[static_cast<size_t>(idx)];
  };

  // Replica stride per task: instance handling CPI t previously handled
  // CPI t - stride.
  const auto stride = [&](int ti) {
    return static_cast<size_t>(plan.replicas[static_cast<size_t>(ti)]);
  };

  for (size_t t = 0; t < n; ++t) {
    // Loop starts derive from earlier CPIs only, so they can be fixed for
    // all tasks up front (the rendezvous gates need them).
    for (int ti = 0; ti < stap::kNumTasks; ++ti)
      loop_start[static_cast<size_t>(ti)][t] =
          (t < stride(ti)) ? 0.0
                           : send_end[static_cast<size_t>(ti)][t - stride(ti)];

    // Tasks evaluated in dataflow order within a CPI; temporal edges only
    // reference t-1, so one pass per CPI is a valid topological order.
    for (int ti = 0; ti < stap::kNumTasks; ++ti) {
      const auto task = static_cast<Task>(ti);
      const auto tsz = static_cast<size_t>(ti);

      double ready = loop_start[tsz][t];
      for (int ei = 0; ei < kNumPipelineEdges; ++ei) {
        const auto& inf = kEdges[static_cast<size_t>(ei)];
        if (inf.dst != task) continue;
        const auto ssz = static_cast<size_t>(inf.src);
        // Data for CPI t left the source at its loop t (spatial) or at the
        // previous same-position visit t - B (temporal; the first visit of
        // each position gets quiescent weights for free).
        const std::ptrdiff_t m =
            inf.temporal
                ? static_cast<std::ptrdiff_t>(t) - temporal_stride
                : static_cast<std::ptrdiff_t>(t);
        double arrival = 0.0;
        if (m >= 0) {
          const double avail = send_end[ssz][static_cast<size_t>(m)];
          const double depart = std::max(avail, gate(ei, m, loop_start));
          arrival = depart + c.wire[static_cast<size_t>(ei)];
          if (tracing && measured(t)) {
            // Rendezvous wait (frame ready but the consuming loop not yet
            // reached) is the sim's analogue of mailbox queue residency.
            obs::Span sp;
            sp.name = "xfer";
            sp.category = "flow";
            sp.rank = ti;
            sp.task = obs::kFlowTrack;
            sp.cpi = static_cast<std::int64_t>(t);
            sp.t_start = avail;
            sp.t_end = arrival;
            sp.bytes = static_cast<std::int64_t>(
                edge_volume_bytes(static_cast<Edge>(ei)));
            sp.src_rank = static_cast<std::int32_t>(inf.src);
            sp.src_task = static_cast<std::int32_t>(inf.src);
            sp.edge = ei;
            sp.hop = inf.src == Task::kDopplerFilter
                         ? 1
                         : (inf.src == Task::kPulseCompression ? 3 : 2);
            sp.queue_s = std::max(0.0, depart - avail);
            obs::emit(sp);
          }
        }
        ready = std::max(ready, arrival);
        if (measured(t)) {
          edge_timing[static_cast<size_t>(ei)].recv +=
              (std::max(0.0, arrival - loop_start[tsz][t]) +
               c.unpack[static_cast<size_t>(ei)]) /
              measured_count;
        }
      }

      const double extra_recv = task == Task::kDopplerFilter
                                    ? c.input_time
                                    : c.unpack_total[tsz];
      const double recv_end = ready + extra_recv;
      const double comp_end = recv_end + c.comp[tsz];

      // Visible send = pack + post, plus the line-14 wait for the previous
      // loop's messages to complete delivery.
      double send_done = comp_end + c.pack_total[tsz] + c.post_total[tsz];
      if (t >= stride(ti)) {
        for (int ei = 0; ei < kNumPipelineEdges; ++ei) {
          const auto& inf = kEdges[static_cast<size_t>(ei)];
          if (inf.src != task) continue;
          const auto m =
              static_cast<std::ptrdiff_t>(t - stride(ti));
          const double delivered =
              std::max(send_end[tsz][static_cast<size_t>(m)],
                       gate(ei, m, loop_start)) +
              c.wire[static_cast<size_t>(ei)];
          send_done = std::max(send_done, delivered);
        }
      }
      send_end[tsz][t] = send_done;

      if (measured(t)) {
        timing[tsz].recv += (recv_end - loop_start[tsz][t]) / measured_count;
        timing[tsz].comp += c.comp[tsz] / measured_count;
        timing[tsz].send += (send_end[tsz][t] - comp_end) / measured_count;
      }
      if (tracing && measured(t)) {
        const auto cpi64 = static_cast<std::int64_t>(t);
        const double pure_send_end =
            comp_end + c.pack_total[tsz] + c.post_total[tsz];
        obs::emit({"recv", "pipeline", ti, ti, cpi64, loop_start[tsz][t],
                   recv_end, -1, -1});
        obs::emit({"comp", "pipeline", ti, ti, cpi64, recv_end, comp_end, -1,
                   -1});
        // The visible send splits into real pack/post work and the line-14
        // delivery stall; the analyzer's intrinsic time must exclude the
        // stall (it is absorbed slack, not service — the Table 3/4/6 send
        // spikes), so they are separate spans.
        obs::emit({"send", "pipeline", ti, ti, cpi64, comp_end, pure_send_end,
                   -1, -1});
        if (send_end[tsz][t] > pure_send_end)
          obs::emit({"stall", "pipeline", ti, ti, cpi64, pure_send_end,
                     send_end[tsz][t], -1, -1});
      }
      if (task == Task::kCfar) {
        completion[t] = comp_end;  // sink: no send phase
        latency[t] =
            comp_end -
            loop_start[static_cast<size_t>(Task::kDopplerFilter)][t];
      }
    }
  }

  // Sender-side edge timing: the visible send phase of the sending task,
  // including any line-14 delivery waits (the paper's tables repeat the
  // task's send figure per successor column).
  for (int ei = 0; ei < kNumPipelineEdges; ++ei) {
    const auto ssz = static_cast<size_t>(kEdges[static_cast<size_t>(ei)].src);
    edge_timing[static_cast<size_t>(ei)].send = timing[ssz].send;
  }

  SimResult result;
  result.timing = timing;
  result.edges = edge_timing;

  double gap_sum = 0.0;
  int gap_count = 0;
  double lat_sum = 0.0;
  int lat_count = 0;
  for (size_t t = 0; t < n; ++t) {
    if (!measured(t)) continue;
    if (t > 0) {
      gap_sum += completion[t] - completion[t - 1];
      ++gap_count;
    }
    lat_sum += latency[t];
    ++lat_count;
  }
  if (gap_count > 0 && gap_sum > 0.0)
    result.throughput_measured = static_cast<double>(gap_count) / gap_sum;
  if (lat_count > 0)
    result.latency_measured = lat_sum / static_cast<double>(lat_count);

  // Equations (1) and (2) from the averaged task totals.
  double max_total = 0.0;
  for (const auto& tt : timing) max_total = std::max(max_total, tt.total());
  if (max_total > 0.0) result.throughput_equation = 1.0 / max_total;
  const auto total = [&](Task t) {
    return timing[static_cast<size_t>(t)].total();
  };
  result.latency_equation =
      total(Task::kDopplerFilter) +
      std::max(total(Task::kEasyBeamform), total(Task::kHardBeamform)) +
      total(Task::kPulseCompression) + total(Task::kCfar);
  return result;
}

double PipelineSimulator::weight_state_bytes() const {
  const double cx = 8.0;
  const auto j = static_cast<double>(p_.num_channels);
  const auto jj = 2.0 * j;
  const auto positions = static_cast<double>(p_.num_beam_positions);
  // Easy: per (position, easy bin): easy_history training matrices.
  const double easy = positions * static_cast<double>(p_.num_easy()) *
                      static_cast<double>(p_.easy_history) *
                      static_cast<double>(p_.easy_samples_per_cpi) * j * cx;
  // Hard: per (position, bin, segment): upper-triangular 2J x 2J factor.
  const double hard = positions * static_cast<double>(p_.num_hard) *
                      static_cast<double>(p_.num_segments) *
                      (jj * (jj + 1.0) / 2.0) * cx;
  return easy + hard;
}

DynamicSimResult PipelineSimulator::simulate_reallocation(
    const ReallocationPlan& plan, index_t num_cpis, index_t warmup) const {
  plan.before.validate(p_);
  plan.after.validate(p_);
  PPSTAP_REQUIRE(plan.switch_cpi > warmup &&
                     plan.switch_cpi + warmup < num_cpis,
                 "switch point must leave a measured window on both sides");

  const Constants c_before = build_constants(*this, p_, m_, plan.before);
  const Constants c_after = build_constants(*this, p_, m_, plan.after);

  // Migration: the weight state crosses the machine once; every involved
  // node pays a startup, and the volume crosses the wire serially.
  const double stall =
      weight_state_bytes() * m_.per_byte_s +
      static_cast<double>(plan.before.total() + plan.after.total()) *
          m_.startup_s;

  const auto n = static_cast<size_t>(num_cpis);
  std::array<std::vector<double>, stap::kNumTasks> loop_start, send_end;
  for (auto& v : loop_start) v.assign(n, 0.0);
  for (auto& v : send_end) v.assign(n, 0.0);
  std::vector<double> completion(n, 0.0), latency(n, 0.0);

  const auto sw = static_cast<size_t>(plan.switch_cpi);
  const auto temporal_stride =
      static_cast<std::ptrdiff_t>(p_.num_beam_positions);

  // The switch is a global barrier: nothing of CPI sw starts before every
  // task has finished CPI sw-1 and the state has moved.
  double barrier = 0.0;

  for (size_t t = 0; t < n; ++t) {
    const Constants& c = (t < sw) ? c_before : c_after;
    for (int ti = 0; ti < stap::kNumTasks; ++ti) {
      const auto tsz = static_cast<size_t>(ti);
      loop_start[tsz][t] = (t == 0) ? 0.0 : send_end[tsz][t - 1];
      if (t == sw) loop_start[tsz][t] = barrier + stall;
    }
    for (int ti = 0; ti < stap::kNumTasks; ++ti) {
      const auto task = static_cast<Task>(ti);
      const auto tsz = static_cast<size_t>(ti);
      double ready = loop_start[tsz][t];
      for (int ei = 0; ei < kNumPipelineEdges; ++ei) {
        const auto& inf = kEdges[static_cast<size_t>(ei)];
        if (inf.dst != task) continue;
        const std::ptrdiff_t m =
            inf.temporal ? static_cast<std::ptrdiff_t>(t) - temporal_stride
                         : static_cast<std::ptrdiff_t>(t);
        if (m < 0) continue;
        // Messages across the switch arrive after the barrier (they are
        // re-distributed with the state).
        const double arrival =
            std::max(send_end[static_cast<size_t>(inf.src)]
                             [static_cast<size_t>(m)],
                     loop_start[tsz][t]) +
            c.wire[static_cast<size_t>(ei)];
        ready = std::max(ready, arrival);
      }
      const double extra_recv = task == Task::kDopplerFilter
                                    ? c.input_time
                                    : c.unpack_total[tsz];
      const double comp_end = ready + extra_recv + c.comp[tsz];
      send_end[tsz][t] = comp_end + c.pack_total[tsz] + c.post_total[tsz];
      barrier = std::max(barrier, send_end[tsz][t]);
      if (task == Task::kCfar) {
        completion[t] = comp_end;
        latency[t] =
            comp_end -
            loop_start[static_cast<size_t>(Task::kDopplerFilter)][t];
      }
    }
  }

  DynamicSimResult result;
  result.migration_stall = stall;
  result.completion = completion;
  const auto phase_stats = [&](size_t begin, size_t end, double& thr,
                               double& lat) {
    double gap_sum = 0.0, lat_sum = 0.0;
    int gaps = 0, lats = 0;
    for (size_t t = begin; t < end; ++t) {
      if (t > begin) {
        gap_sum += completion[t] - completion[t - 1];
        ++gaps;
      }
      lat_sum += latency[t];
      ++lats;
    }
    thr = (gaps > 0 && gap_sum > 0.0) ? static_cast<double>(gaps) / gap_sum
                                      : 0.0;
    lat = lats > 0 ? lat_sum / static_cast<double>(lats) : 0.0;
  };
  phase_stats(static_cast<size_t>(warmup), sw, result.throughput_before,
              result.latency_before);
  phase_stats(sw + static_cast<size_t>(warmup), n, result.throughput_after,
              result.latency_after);
  return result;
}

namespace {

// Per-task upper bound on useful nodes (the validate() limits).
std::array<int, stap::kNumTasks> node_caps(const stap::StapParams& p) {
  return {static_cast<int>(p.num_range),
          static_cast<int>(p.num_easy()),
          static_cast<int>(p.num_hard * p.num_segments),
          static_cast<int>(p.num_easy()),
          static_cast<int>(p.num_hard),
          static_cast<int>(p.num_pulses),
          static_cast<int>(p.num_pulses)};
}

// Greedy: repeatedly hand the next node to the task selected by `pick`,
// which receives the current per-task intrinsic times.
template <typename Pick>
NodeAssignment greedy_assign(const PipelineSimulator& sim, int total_nodes,
                             Pick&& pick) {
  PPSTAP_REQUIRE(total_nodes >= stap::kNumTasks,
                 "need at least one node per task");
  const auto caps = node_caps(sim.params());
  NodeAssignment a;  // all ones
  while (a.total() < total_nodes) {
    std::array<double, stap::kNumTasks> intrinsic{};
    for (int t = 0; t < stap::kNumTasks; ++t)
      intrinsic[static_cast<size_t>(t)] =
          sim.intrinsic_time(static_cast<Task>(t), a);
    const int chosen = pick(intrinsic, a, caps);
    if (chosen < 0) break;  // nothing can usefully grow
    a.nodes[static_cast<size_t>(chosen)] += 1;
  }
  return a;
}

int argmax_growable(const std::array<double, stap::kNumTasks>& intrinsic,
                    const NodeAssignment& a,
                    const std::array<int, stap::kNumTasks>& caps,
                    const std::array<bool, stap::kNumTasks>& eligible) {
  int best = -1;
  double best_v = -1.0;
  for (int t = 0; t < stap::kNumTasks; ++t) {
    if (!eligible[static_cast<size_t>(t)]) continue;
    if (a.nodes[static_cast<size_t>(t)] >= caps[static_cast<size_t>(t)])
      continue;
    if (intrinsic[static_cast<size_t>(t)] > best_v) {
      best_v = intrinsic[static_cast<size_t>(t)];
      best = t;
    }
  }
  return best;
}

}  // namespace

namespace {

// Hill-climb over single-node moves (take one node from task i, give it to
// task j), scoring each candidate with a full pipeline simulation. Assumes
// a sensible starting point; used to polish the intrinsic-greedy seed.
// `better(candidate, incumbent)` decides strict improvement.
template <typename Better>
NodeAssignment hill_climb(const PipelineSimulator& sim, NodeAssignment a,
                          Better&& better) {
  const auto caps = node_caps(sim.params());
  SimResult cur = sim.simulate(a, 12, 2, 2);
  for (int pass = 0; pass < 64; ++pass) {
    bool improved = false;
    NodeAssignment best_a = a;
    SimResult best_r = cur;
    for (int i = 0; i < stap::kNumTasks; ++i) {
      if (a.nodes[static_cast<size_t>(i)] <= 1) continue;
      for (int j = 0; j < stap::kNumTasks; ++j) {
        if (j == i ||
            a.nodes[static_cast<size_t>(j)] >= caps[static_cast<size_t>(j)])
          continue;
        NodeAssignment trial = a;
        trial.nodes[static_cast<size_t>(i)] -= 1;
        trial.nodes[static_cast<size_t>(j)] += 1;
        const SimResult r = sim.simulate(trial, 12, 2, 2);
        if (better(r, best_r)) {
          best_a = trial;
          best_r = r;
          improved = true;
        }
      }
    }
    if (!improved) break;
    a = best_a;
    cur = best_r;
  }
  return a;
}

}  // namespace

NodeAssignment assign_for_throughput(const PipelineSimulator& sim,
                                     int total_nodes) {
  std::array<bool, stap::kNumTasks> all;
  all.fill(true);
  // Seed: feed the bottleneck (steady-state throughput is 1/max
  // intrinsic), then polish with simulation-scored moves.
  NodeAssignment seed = greedy_assign(
      sim, total_nodes,
      [&](const std::array<double, stap::kNumTasks>& intrinsic,
          const NodeAssignment& a,
          const std::array<int, stap::kNumTasks>& caps) {
        return argmax_growable(intrinsic, a, caps, all);
      });
  return hill_climb(sim, seed, [](const SimResult& r, const SimResult& cur) {
    if (r.throughput_measured != cur.throughput_measured)
      return r.throughput_measured > cur.throughput_measured * 1.0001;
    return r.latency_measured < cur.latency_measured * 0.9999;
  });
}

NodeAssignment assign_for_latency(const PipelineSimulator& sim,
                                  int total_nodes, double min_throughput) {
  // Start from the throughput-optimal assignment (which keeps every task,
  // including the weight tasks that equation (2) hides, supplied with
  // enough nodes), then trade throughput for latency with simulation-
  // scored moves while respecting the floor.
  NodeAssignment seed = assign_for_throughput(sim, total_nodes);
  return hill_climb(sim, seed, [&](const SimResult& r, const SimResult& cur) {
    const bool r_ok = r.throughput_measured >= min_throughput;
    const bool c_ok = cur.throughput_measured >= min_throughput;
    if (r_ok != c_ok) return r_ok;
    if (r_ok) return r.latency_measured < cur.latency_measured * 0.9999;
    return r.throughput_measured > cur.throughput_measured * 1.0001;
  });
}

}  // namespace ppstap::core
