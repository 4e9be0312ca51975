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
#include "core/fault_tolerance.hpp"
#include "core/healing.hpp"
#include "core/health.hpp"
#include "core/integrity.hpp"
#include "core/overload.hpp"
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

/// Number of inter-task edges of Fig. 4 (indexed like SimEdge in sim.hpp).
inline constexpr int kNumPipelineEdges = 9;

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

  /// Total bytes moved between tasks per measured CPI (send side), indexed
  /// by sending task — feeds the machine-model volume validation.
  std::array<double, stap::kNumTasks> bytes_sent_per_cpi{};

  /// Per-link byte counters: bytes per measured CPI crossing each Fig. 4
  /// edge, indexed like core::SimEdge (sim.hpp).
  std::array<double, kNumPipelineEdges> bytes_per_edge_per_cpi{};

  /// Shed CPIs, retransmissions, injected faults, uncovered deaths. Empty
  /// (faults.clean()) on a fault-free run. Shed CPIs have no detections
  /// and are excluded from the latency averages, but their completion
  /// still counts toward throughput — the stream kept moving.
  FaultLedger faults;

  /// Overload-control accounting: per-CPI degradation levels, rejected
  /// CPIs, ladder transitions. All-kFull/empty when the controller is off.
  OverloadLedger overload;

  /// Numerical-health guard firings aggregated over every weight computer
  /// of the run (screened training blocks, diagonal-loading retries,
  /// quiescent fallbacks). numerics.clean() on a healthy run.
  stap::WeightHealth numerics;

  /// ABFT accounting: invariant checks passed/failed, bounded recomputes,
  /// repairs, escalations into the shed machinery, and end-to-end digest
  /// mismatches attributed to the producing task. integrity.clean() on a
  /// corruption-free run (and trivially when PPSTAP_ABFT is off).
  IntegrityLedger integrity;

  /// Live rank-migration accounting: every elastic attempt (committed or
  /// rolled back) with its barrier CPI and measured quiesce stall.
  /// migrations.clean() when no migration was ever proposed.
  MigrationLedger migrations;

  /// Self-healing accounting (PR 8): one event per rank death — spare
  /// takeover, shrink-to-survivors, quarantine, or uncovered — with
  /// per-recovery MTTR. healing.clean() when no rank ever died.
  HealingLedger healing;

  /// Gray-failure detector accounting (PR 10): per-rank service/queue
  /// EWMAs, peer z-scores, and every detector transition (suspect, clear,
  /// quarantine, flap-suppression, do-no-harm veto). health.clean() when
  /// nothing was ever suspected (and trivially when PPSTAP_HEALTH is off).
  HealthLedger health;

  /// Absolute sink completion timestamp per CPI (WallTimer base; 0.0 for
  /// CPIs that never completed) — lets benches window steady-state
  /// throughput around a migration barrier.
  std::vector<double> completion_times;
};

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

  /// Enable/disable the fault-tolerance policies (default: read from the
  /// PPSTAP_FAULT_* environment, i.e. disabled unless knobs are set).
  void set_fault_tolerance(const FaultToleranceConfig& cfg) { ft_ = cfg; }
  const FaultToleranceConfig& fault_tolerance() const { return ft_; }

  /// Install a fault-injection plan on the run's comm world (borrowed;
  /// must outlive run(); nullptr to clear).
  void set_fault_plan(comm::FaultPlan* plan) { plan_ = plan; }

  /// Enable/disable adaptive overload control (default: read from the
  /// PPSTAP_OVERLOAD* environment, i.e. disabled unless knobs are set).
  void set_overload(const OverloadConfig& cfg) { ov_ = cfg; }
  const OverloadConfig& overload() const { return ov_; }

  /// Enable/disable the ABFT integrity layer (default: read from the
  /// PPSTAP_ABFT* environment, i.e. disabled unless knobs are set).
  void set_integrity(const IntegrityConfig& cfg) { integ_ = cfg; }
  const IntegrityConfig& integrity() const { return integ_; }

  /// Configure live elastic rank migration (default: read from the
  /// PPSTAP_ELASTIC* environment, i.e. disabled unless knobs are set).
  /// Forced migrations fire even with the policy loop disabled.
  void set_elastic(const ElasticConfig& cfg) { el_ = cfg; }
  const ElasticConfig& elastic() const { return el_; }

  /// Configure gray-failure detection/quarantine (default: read from the
  /// PPSTAP_HEALTH* environment, i.e. disabled unless knobs are set).
  void set_health(const HealthConfig& cfg) { hc_ = cfg; }
  const HealthConfig& health() const { return hc_; }

 private:
  stap::StapParams p_;
  NodeAssignment assign_;
  std::vector<linalg::MatrixCF> steering_;  // per transmit position
  std::vector<cfloat> replica_;
  FaultToleranceConfig ft_ = FaultToleranceConfig::from_env();
  OverloadConfig ov_ = OverloadConfig::from_env();
  IntegrityConfig integ_ = IntegrityConfig::from_env();
  ElasticConfig el_ = ElasticConfig::from_env();
  HealthConfig hc_ = HealthConfig::from_env();
  comm::FaultPlan* plan_ = nullptr;
};

}  // namespace ppstap::core
