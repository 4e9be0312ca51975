// The paper's primary contribution: the parallel pipelined STAP system.
//
// Seven tasks (Fig. 4) each run on their own group of ranks; CPI data cubes
// stream through in a staggered fashion. Within a task the work is
// partitioned along one cube dimension (K for Doppler filtering, Doppler
// bins for everything else; hard weights over (bin, segment) units);
// between tasks, all-to-all personalized communication redistributes and
// reorganizes the data (Figs. 6-9). The temporal dependencies TD_{1,3} and
// TD_{2,4} are realized by having the weight tasks emit the weights for CPI
// i+1 after training on CPI i, so beamforming of CPI i never waits on its
// own CPI's weights — which is why the weight tasks drop out of the latency
// equation (2).
//
// Every rank runs the Figure-10 loop: receive (+unpack), compute, pack
// (+send), with the three phases timed separately; results average the
// middle CPIs exactly as the paper's measurements do.
#pragma once

#include <array>
#include <vector>

#include "core/assignment.hpp"
#include "core/elastic.hpp"
#include "core/events.hpp"
#include "core/fault_tolerance.hpp"
#include "core/health.hpp"
#include "core/integrity.hpp"
#include "core/overload.hpp"
#include "core/tags.hpp"
#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "stap/cfar.hpp"
#include "stap/params.hpp"
#include "stap/weights.hpp"
#include "synth/scenario.hpp"

namespace ppstap::comm {
class FaultPlan;
}  // namespace ppstap::comm

namespace ppstap::core {

/// Figure-10 phase times for one task (seconds per CPI, averaged over the
/// measured CPIs and over the task's ranks).
struct TaskTiming {
  double recv = 0.0;
  double comp = 0.0;
  double send = 0.0;
  double total() const { return recv + comp + send; }
};

struct PipelineResult {
  /// Detections per CPI, sorted by (bin, beam, range) — identical to the
  /// sequential reference on the same stream.
  std::vector<std::vector<stap::Detection>> detections;

  /// Per-task Figure-10 timing (middle CPIs).
  std::array<TaskTiming, stap::kNumTasks> timing{};

  /// Measured at the sink: 1 / mean inter-completion gap (CPIs per second).
  double throughput = 0.0;
  /// Mean admission to detection-report time over the measured CPIs.
  double latency = 0.0;
  std::vector<double> per_cpi_latency;
  /// CPI index of each per_cpi_latency entry (measured, non-shed CPIs in
  /// order) — lets trace consumers join stitched per-CPI chains against
  /// the measured latencies.
  std::vector<index_t> per_cpi_index;

  /// Per-CPI latency percentiles extracted from `latency_histogram` —
  /// within one bucket of the exact order statistics of per_cpi_latency.
  struct LatencyPercentiles {
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  LatencyPercentiles latency_percentiles;
  /// The fixed-bucket histogram behind the percentiles (bounds + counts),
  /// for export and cross-PR trend tracking.
  obs::Histogram::Snapshot latency_histogram;

  /// Mean seconds per CPI (averaged over the whole stream and the task's
  /// ranks) spent blocked in recv waiting for upstream data — the
  /// queue-wait gauge: idle time, as opposed to the unpack work also
  /// charged to Fig. 10's receive phase.
  std::array<double, stap::kNumTasks> queue_wait_per_cpi{};

  /// Per-link byte counters: bytes per measured CPI crossing each Fig. 4
  /// edge (send side), indexed by core::Edge (tags.hpp) — feeds the
  /// machine-model volume validation.
  std::array<double, kNumPipelineEdges> bytes_per_edge_per_cpi{};

  /// Every run event in record order (events.hpp): sheds with their
  /// origin, transport and injected-fault tallies, integrity repairs,
  /// overload decisions, migrations, healing and health verdicts. Healing,
  /// migration and health outcomes are queries over it.
  Events events;

  /// summarize(events): shed CPIs (no detections, excluded from the
  /// latency averages, but their completion still counts toward
  /// throughput — the stream kept moving) and retransmissions; CPIs
  /// rejected at admission; ABFT failures, repairs and escalations.
  FaultSummary faults;
  OverloadSummary overload;
  IntegritySummary integrity;

  /// Per-edge retransmission histogram summed over all ranks, mirroring
  /// comm::CommStats::retry_histogram (rows = tag-slot buckets, data edges
  /// 0-8 plus an "other" bucket; column a = frames delivered after exactly
  /// a+1 refetches, last column = budget exhausted). Dimensions are
  /// static_asserted against the comm layer at the aggregation site.
  std::array<std::array<std::uint64_t, 6>, 10> retry_histogram{};

  /// Absolute sink completion timestamp per CPI (WallTimer base; 0.0 for
  /// CPIs that never completed) — lets benches window steady-state
  /// throughput around a migration barrier.
  std::vector<double> completion_times;
};

/// Measured quiesce stall of a migration whose barrier is `barrier_cpi`:
/// the excess of that CPI's sink inter-completion gap over the run's
/// median gap (the live analogue of the simulator's migration_stall); 0
/// when either completion is missing.
double barrier_stall_seconds(const PipelineResult& r, index_t barrier_cpi);

/// Runs the parallel pipelined STAP application on an in-process rank world.
class ParallelStapPipeline {
 public:
  /// `steering` is J x M (shared by every transmit position).
  /// `replica` may be empty.
  ParallelStapPipeline(const stap::StapParams& p,
                       const NodeAssignment& assignment,
                       linalg::MatrixCF steering,
                       std::vector<cfloat> replica);

  /// Per-transmit-position steering (size must equal num_beam_positions).
  ParallelStapPipeline(const stap::StapParams& p,
                       const NodeAssignment& assignment,
                       std::vector<linalg::MatrixCF> steering_per_position,
                       std::vector<cfloat> replica);

  /// Stream `num_cpis` CPIs from the scenario through the pipeline.
  /// Timing averages skip the first `warmup` and last `cooldown` CPIs
  /// (paper: first 3 and last 2 of 25).
  PipelineResult run(const synth::ScenarioGenerator& scenario,
                     index_t num_cpis, index_t warmup = 3,
                     index_t cooldown = 2);

  // A run is configured only through the setters below; every config
  // defaults to off, whatever the environment holds.

  /// Enable/disable the fault-tolerance policies.
  void set_fault_tolerance(const FaultToleranceConfig& cfg) { ft_ = cfg; }
  const FaultToleranceConfig& fault_tolerance() const { return ft_; }

  /// Install a fault-injection plan on the run's comm world (borrowed;
  /// must outlive run(); nullptr to clear).
  void set_fault_plan(comm::FaultPlan* plan) { plan_ = plan; }

  /// Enable/disable adaptive overload control.
  void set_overload(const OverloadConfig& cfg) { ov_ = cfg; }
  const OverloadConfig& overload() const { return ov_; }

  /// Enable/disable the ABFT integrity layer.
  void set_integrity(const IntegrityConfig& cfg) { integ_ = cfg; }
  const IntegrityConfig& integrity() const { return integ_; }

  /// Configure live elastic rank migration. Forced migrations fire even
  /// with the policy loop disabled.
  void set_elastic(const ElasticConfig& cfg) { el_ = cfg; }
  const ElasticConfig& elastic() const { return el_; }

  /// Configure gray-failure detection/quarantine.
  void set_health(const HealthConfig& cfg) { hc_ = cfg; }
  const HealthConfig& health() const { return hc_; }

 private:
  stap::StapParams p_;
  NodeAssignment assign_;
  std::vector<linalg::MatrixCF> steering_;  // per transmit position
  std::vector<cfloat> replica_;
  FaultToleranceConfig ft_;
  OverloadConfig ov_;
  IntegrityConfig integ_;
  ElasticConfig el_;
  HealthConfig hc_;
  comm::FaultPlan* plan_ = nullptr;
};

}  // namespace ppstap::core
