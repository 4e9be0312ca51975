// Critical-path analyzer: turns recorded spans into the paper's Tables 7-10
// bottleneck verdict, mechanically.
//
// The paper's evaluation method is manual: time every {recv, comp, send}
// phase per task (Fig. 10), then find the task group whose *intrinsic*
// per-CPI time — service time minus the idle queue-wait absorbed in its
// receive phase — is the largest; that group gates throughput (eq. 1), the
// others carry slack, and node reassignments (Tables 9 and 10) move ranks
// toward the gating group. This module automates exactly that computation
// from a span set:
//
//  * Stage statistics: per task, mean visible recv/comp/send per CPI, the
//    queue-wait share of recv (bounded by the latest flow-span delivery
//    into each rank), the intrinsic time, utilization = intrinsic/period,
//    and slack = period - intrinsic.
//  * Per-CPI causal chains: starting from the sink task's last send, walk
//    backward through the gating "xfer" flow span at each hop (the frame
//    whose delivery completed last, temporal weight edges excluded as in
//    eq. 2), tiling the end-to-end latency into compute, unpack, pack,
//    transport, and queue segments. The tiles telescope, so the
//    decomposition closes the latency budget by construction; the reported
//    accounted_fraction drops below 1 only when spans are missing. A chain
//    starts at the CPI's front-end "generate" span (its admission) when the
//    trace has one, else at the source stage's first recv. A source stage
//    that filters a streamed cube while it is generated overlaps that
//    span: the shared time is counted once, as compute, and reported as
//    the chain's overlap. The front end's span also bounds the source
//    stage's queue-wait, as a delivery bounds any other stage's.
//  * A Table-9/10-style recommendation: how many ranks to add to the
//    gating group to bring its intrinsic time down to the runner-up's.
//
// Works on live pipeline traces (rank = global rank) and on machine-model
// simulator traces (rank = task index) identically. This module depends
// only on obs — task labels for the seven stap tasks are replicated here
// because obs cannot link against stap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace ppstap::obs {

/// Number of pipeline tasks in the paper's Fig. 4 (stap::kNumTasks).
inline constexpr int kNumStapTasks = 7;

/// Printable label for a stap task index ("task<N>" for anything else).
std::string stap_task_label(int task);

/// Per-task-group service decomposition (one row of Table 7/8's timing
/// columns, averaged over ranks and measured CPIs).
struct StageStat {
  int task = -1;
  int ranks = 0;           ///< distinct ranks observed for this task
  std::int64_t samples = 0;  ///< (rank, cpi) instances averaged
  double recv = 0.0;       ///< mean visible recv phase (includes waiting)
  double wait = 0.0;       ///< idle share of recv (delivery-bounded)
  double comp = 0.0;
  double send = 0.0;
  double utilization = 0.0;  ///< intrinsic / period
  double slack = 0.0;        ///< period - intrinsic

  double service() const { return recv + comp + send; }
  double intrinsic() const { return service() - wait; }
};

/// One stitched end-to-end chain: the latency of CPI `cpi` tiled into
/// causal segments along the backward walk from sink to source.
struct CpiChain {
  std::int64_t cpi = -1;
  int hops = 0;
  double latency = 0.0;    ///< sink send end - admission (or source recv)
  double compute = 0.0;    ///< comp phases + front-end generation
  double unpack = 0.0;     ///< recv-side work after the gating delivery
  double pack = 0.0;       ///< send-side work up to the gating frame's send
  double transport = 0.0;  ///< send call -> delivery, minus queue residency
  double queue = 0.0;      ///< delivered-but-unconsumed mailbox residency
  /// Source-stage compute that ran under the front end's generate span (a
  /// filter working on the first rows of a streamed cube): part of
  /// `compute` once, not a tile of its own.
  double overlap = 0.0;

  double accounted() const {
    return compute + unpack + pack + transport + queue;
  }
  double unaccounted() const {
    const double u = latency - accounted();
    return u > 0.0 ? u : 0.0;
  }
};

struct BottleneckReport {
  bool valid = false;
  std::string note;  ///< why invalid, or caveats (e.g. no flow spans)

  // The Tables 7-10 verdict.
  int gating_task = -1;
  std::string gating_task_name;
  double period = 0.0;                ///< max intrinsic over task groups
  double throughput_estimate = 0.0;   ///< 1 / period (eq. 1)
  std::vector<StageStat> stages;

  // Stitched per-CPI chains and their mean decomposition.
  std::vector<CpiChain> chains;
  double mean_latency = 0.0;
  double accounted_fraction = 0.0;  ///< mean accounted()/latency over chains

  // Table-9/10-style reassignment hint: add `recommend_add_ranks` ranks to
  // `recommend_task` to bring its intrinsic down to the runner-up's,
  // lifting throughput to ~`predicted_throughput`.
  int recommend_task = -1;
  int recommend_add_ranks = 0;
  double predicted_throughput = 0.0;

  Json to_json() const;
};

/// Analyze a span set (e.g. obs::snapshot()). Uses spans with category
/// "pipeline" (names "recv"/"comp"/"send"), "flow" (name "xfer") and
/// "source" (name "generate"); everything else is ignored. When more than
/// 8 distinct complete CPIs are present the first and last two are trimmed
/// (startup / drain transients).
BottleneckReport analyze_spans(const std::vector<Span>& spans);

/// Analyze an exported Chrome trace document (the inverse of
/// chrome_trace_json(): pid -> task, args -> flow fields).
BottleneckReport analyze_trace(const Json& chrome_doc);

/// The trace-to-span conversion analyze_trace() is built on, exposed for
/// tools that need the raw per-(rank, cpi) phase spans — e.g. the offline
/// per-rank health report in ppstap-analyze.
std::vector<Span> spans_from_trace(const Json& chrome_doc);

}  // namespace ppstap::obs
