// Per-rank gray-failure detection: health-scored straggler quarantine.
//
// The paper's placement machinery (eq. 1, Tables 7-10) assumes every rank
// of a task group runs at nominal speed: throughput is the inverse of the
// slowest task, so one degraded-but-alive rank silently caps the whole
// pipeline while every existing defense stays quiet — death detection
// (World::rank_dead) is binary fail-stop, and the overload ladder reads a
// straggler as global overload and degrades everyone. This module closes
// that gap:
//
//  * Detect. Every rank feeds its Fig.-10 phase timestamps (already taken
//    for the trace spans) into a HealthMonitor: an EWMA of the rank's
//    *intrinsic* per-CPI service (compute + send, i.e. t3 - t1 — the
//    queue-wait absorbed in the receive phase is excluded, so ranks merely
//    blocked *behind* a straggler are never flagged) plus an EWMA of its
//    queue wait for reporting. The sink's periodic scan (the pipelined
//    front can run arbitrarily far ahead of a straggler, so the scan rides
//    the rank that is last to see every CPI — by the time the sink
//    completes CPI i, every upstream rank has sampled it) scores each
//    rank against its task-group peers with a leave-one-out z-score over
//    the peers' service FLOORS — the minimum over each rank's last few raw
//    samples. The floor is the robust statistic for gray failure: a truly
//    degraded rank stretches every sample (the slowdown is
//    multiplicative), so its window minimum is elevated, while scheduler
//    preemption and cache noise only inflate individual samples — one
//    clean sample per window keeps a healthy rank's floor at its true
//    compute cost (the deliberate trade: a straggler slow only on a
//    minority of CPIs hides below the floor and is absorbed instead of
//    evicted). The z-score is floored by a relative std so tiny clean-run
//    variance cannot manufacture outliers, and double-gated: a minimum
//    peer-relative service ratio, plus an absolute floor (`min_service`)
//    under which microsecond-noise groups are never scored at all.
//
//  * Hysteresis. A straggler verdict accrues a strike; `dwell` consecutive
//    scan strikes are required before any action, and strikes only clear
//    once the score falls below half the threshold — so a rank flickering
//    around the threshold neither escalates nor resets on every tick.
//
//  * Mitigate. A confirmed straggler is quarantined by treating it as a
//    voluntary death: the monitor raises a flag the rank itself polls at
//    its next CPI barrier and honours by throwing comm::RankKilled, which
//    hands the rank to the existing recovery machinery (spare-pool
//    takeover, else elastic shrink-to-survivors), recorded with cause
//    "quarantine" and MTTR. Two guards precede eviction: a flap budget
//    (one quarantine per rank per run, so an intermittently slow rank is
//    not evicted repeatedly), and a do-no-harm gate — an eq.-1 throughput
//    prediction built from the same per-group intrinsic EWMAs the
//    critical-path analyzer uses: eviction must shrink the pipeline period
//    (straggler group healed vs. every other group's estimate) by at least
//    5%, otherwise the verdict is vetoed and recorded.
//
// Every verdict (suspect, clear, quarantine, flap suppression, veto) is
// recorded into the run's event log, plus one kRankHealth exit record per
// scored rank; the health.* counters derive from those records.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/events.hpp"

namespace ppstap::core {

struct HealthConfig {
  /// Master switch. Off by default: scoring costs one mutexed EWMA update
  /// per rank per CPI, and quarantine changes failure semantics —
  /// operators opt in.
  bool enabled = false;
  /// Leave-one-out peer z-score a rank must exceed to strike.
  double zscore = 4.0;
  /// Consecutive straggler scans required before quarantine.
  int dwell = 3;
  /// Whether a confirmed straggler is actually evicted; off =
  /// detect-and-record only.
  bool quarantine = true;
  /// EWMA weight of the newest per-CPI sample.
  double alpha = 0.3;
  /// Second gate: the straggler's service EWMA must also exceed the peer
  /// mean by this ratio (z-scores alone explode when peers are uniform).
  double min_ratio = 1.5;
  /// Samples a rank needs before it can be scored at all.
  int min_samples = 3;
  /// Absolute service floor (seconds): a rank whose service EWMA sits
  /// below it is never flagged, however its peers compare — sub-floor
  /// groups live in scheduler-noise territory where a relative z-score is
  /// meaningless, and a straggler that slow cannot be gating the pipeline
  /// anyway.
  double min_service = 1e-4;

  /// Throws ppstap::Error on an inconsistent configuration.
  void validate() const;
};

/// One task group presented to a scan: the live, scoreable ranks.
struct HealthGroup {
  int task = -1;
  std::vector<int> ranks;
};

/// Shared detector: every rank thread calls observe() once per CPI; the
/// sink rank calls scan() once per completed CPI; every rank polls
/// quarantine_requested() at its CPI barrier.
class HealthMonitor {
 public:
  HealthMonitor(const HealthConfig& cfg, int n_ranks, EventLog& log);

  /// Fold one Fig.-10 cycle: `service_s` is the intrinsic time (t3 - t1),
  /// `queue_s` the receive wait (t1 - t0). Ignored once the rank is
  /// quarantined (its tail samples are the straggler's, not its spare's).
  void observe(int rank, int task, long long cpi, double service_s,
               double queue_s);

  /// Score every group against its peers and advance the detector state
  /// machine. `spare_available` selects the do-no-harm model (takeover
  /// restores the group; shrink redistributes the straggler's share over
  /// the survivors); with neither a spare nor shrink available the evictee
  /// would die uncovered, so every eviction is vetoed.
  void scan(long long cpi, const std::vector<HealthGroup>& groups,
            bool spare_available, bool shrink_available);

  /// Lock-free poll: should `rank` treat itself as voluntarily dead now?
  bool quarantine_requested(int rank) const {
    return quarantine_flag_[static_cast<size_t>(rank)].load(
        std::memory_order_acquire);
  }

  /// Whether `rank` was ever evicted by this monitor (attribution for the
  /// healing record: its death gets cause "quarantine", not "death").
  bool was_quarantined(int rank) const;

  /// A spare took over `rank`'s identity: clear the eviction request,
  /// reset the rank's statistics (the replacement hardware is healthy),
  /// and remember the revival so per-rank fault rules keyed on the old
  /// identity are not re-applied to the newcomer.
  void on_revived(int rank);
  /// True once on_revived(rank) has run (polled by the compute wrapper to
  /// skip kSlow rules for the healthy replacement).
  bool revived(int rank) const {
    return revived_[static_cast<size_t>(rank)].load(
        std::memory_order_acquire);
  }

  const HealthConfig& config() const { return cfg_; }

  /// Records one kRankHealth exit record per rank that produced samples
  /// (count = samples, seconds = service floor). Call after the stream
  /// drains.
  void record_ranks() const;

 private:
  /// Raw samples per floor window: small enough that a freshly slowed
  /// rank's floor rises within one detector dwell, large enough that a
  /// healthy rank almost surely lands one unpreempted sample per window.
  static constexpr int kFloorWindow = 8;

  struct RankState {
    long long samples = 0;
    double ewma_service = 0.0;
    double ewma_queue = 0.0;
    std::array<double, kFloorWindow> recent{};  ///< raw-sample ring
    int recent_n = 0;                           ///< filled entries
    int recent_idx = 0;                         ///< next write slot
    double last_zscore = 0.0;
    int task = -1;
    int strikes = 0;
    int quarantine_count = 0;
    bool suspect = false;
    bool quarantined = false;
  };

  /// Window-minimum of the rank's recent raw samples (0 until a sample
  /// lands); the statistic every straggler verdict is scored on.
  static double floor_of(const RankState& s);

  /// Predicted eq.-1 gain check for evicting `rank` from `group`; caller
  /// holds mu_. `healthy` are the peer service floors.
  bool do_no_harm_ok(const std::vector<HealthGroup>& groups,
                     const HealthGroup& group, int rank,
                     const std::vector<double>& healthy,
                     bool spare_available, bool shrink_available) const;
  double group_period(const HealthGroup& g) const;  ///< caller holds mu_
  void verdict(EventKind kind, int rank, const RankState& s, long long cpi,
               double z) const;

  HealthConfig cfg_;
  EventLog& log_;
  mutable std::mutex mu_;
  std::vector<RankState> state_;
  std::vector<std::atomic<bool>> quarantine_flag_;
  std::vector<std::atomic<bool>> revived_;
};

}  // namespace ppstap::core
