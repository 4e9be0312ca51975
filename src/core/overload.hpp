// Adaptive overload control for the pipelined STAP runtime.
//
// A radar flight processor is offered CPIs at the front-end's rate, not at
// the rate the pipeline happens to sustain. When offered load exceeds
// capacity, an uncontrolled pipeline grows unbounded queues and its latency
// diverges; PR 2's deadline shedding alone simply drops whole CPIs. This
// subsystem adds (paper §6's real-time framing):
//
//  * Bounded admission at the CpiSource: the controller tracks the number
//    of admitted-but-uncompleted CPIs and, at `queue_high`, either rejects
//    the CPI outright (markers flow down the pipeline, the sink records a
//    shed) or throttles the source until the backlog drains.
//
//  * A graceful-degradation ladder: sampling backlog depth and the p95
//    end-to-end latency each CPI, the controller walks
//
//      kFull -> kReducedBeams -> kFrozenHard -> kStaleWeights -> kShedInput
//
//    toward a proportional target (the backlog band between queue_low and
//    queue_high maps onto the producing rungs), one rung per admission —
//    up immediately, back down only after `dwell` consecutive admissions
//    that wanted a lower rung (hysteresis, so the level does not chatter).
//    Each rung sheds a progressively larger fraction of work while keeping
//    *some* output flowing — strictly better than shedding whole CPIs,
//    which is kept as the last resort (reached only through the queue_high
//    bound or a sustained SLO violation).
//
// The per-CPI decision is memoized at admission time and readable lock-free
// downstream: the decision is written before the CPI's first frame is sent,
// so the mailbox transfer orders the write before any reader.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/types.hpp"

namespace ppstap::core {

/// One rung per progressively cheaper operating mode. Values are ordered:
/// a higher level sheds strictly more work.
enum class DegradationLevel : std::int8_t {
  kFull = 0,          ///< full fidelity, all M beams, fresh weights
  kReducedBeams = 1,  ///< beamform only ceil(M/2) beams
  kFrozenHard = 2,    ///< also ceil(M/4) beams + freeze the hard recursion
                      ///< (hard bins reuse the last R; training is skipped)
  kStaleWeights = 3,  ///< both weight tasks skip the solve and resend the
                      ///< last computed weights (training markers upstream)
  kShedInput = 4,     ///< admission rejects the CPI entirely (PR 2 shed
                      ///< markers; the sink records a shed CPI)
};

inline constexpr int kNumDegradationLevels = 5;

const char* degradation_level_name(DegradationLevel level);

/// Receive beams actually formed at `level` (the reduced-beam rungs): M,
/// ceil(M/2), then ceil(M/4), never below one beam.
inline index_t active_beams_for(DegradationLevel level, index_t num_beams) {
  switch (level) {
    case DegradationLevel::kFull:
      return num_beams;
    case DegradationLevel::kReducedBeams:
      return std::max<index_t>(1, (num_beams + 1) / 2);
    default:
      return std::max<index_t>(1, (num_beams + 3) / 4);
  }
}

struct OverloadConfig {
  /// Master switch; when false the pipeline is byte-identical to PR 2.
  bool enabled = false;
  /// When false, the degradation ladder stays pinned at kFull and only the
  /// bounded-queue admission applies — the "shed-only" baseline the
  /// ext_overload bench compares against.
  bool ladder = true;

  /// Backlog (admitted - completed CPIs) above which the controller starts
  /// escalating the ladder.
  index_t queue_low = 8;
  /// Hard backlog bound: at this depth admission rejects (or throttles).
  index_t queue_high = 16;
  /// p95 end-to-end latency SLO in seconds; 0 = depth-only control.
  double slo_latency_seconds = 0.0;
  /// Consecutive healthy admissions required before stepping back down one
  /// rung (hysteresis damping).
  int dwell = 4;
  /// Offered-load pacing: CPI i is admitted no earlier than
  /// first-admission + i * period. 0 = free-running (no pacing).
  double arrival_period_seconds = 0.0;
  /// At queue_high: true rejects the CPI (real-time front ends cannot
  /// block), false throttles the source until the backlog drains.
  bool reject_when_full = true;
  /// Override for StapParams::condition_threshold; 0 keeps the params
  /// default.
  double condition_threshold = 0.0;

  /// Read the PPSTAP_OVERLOAD* environment knobs (see README):
  ///   PPSTAP_OVERLOAD         flag; enables the subsystem
  ///   PPSTAP_OVERLOAD_LADDER  flag; default on (off = shed-only baseline)
  ///   PPSTAP_OVERLOAD_QLO     escalation backlog threshold
  ///   PPSTAP_OVERLOAD_QHI     hard backlog bound
  ///   PPSTAP_OVERLOAD_SLO     p95 latency SLO, seconds (0 = depth only)
  ///   PPSTAP_OVERLOAD_DWELL   healthy admissions before de-escalation
  ///   PPSTAP_OVERLOAD_PERIOD  arrival period, seconds (0 = free-run)
  ///   PPSTAP_OVERLOAD_ADMIT   "reject" | "throttle"
  ///   PPSTAP_OVERLOAD_COND    condition-threshold override (0 = keep)
  /// All parsed through the hardened common/env.hpp helpers: garbage
  /// throws, it never silently disables the protection.
  static OverloadConfig from_env();

  /// Throws ppstap::Error on an inconsistent configuration.
  void validate() const;
};

/// Post-run accounting of every overload-control decision.
struct OverloadLedger {
  /// CPIs rejected at admission (ascending).
  std::vector<index_t> rejected_cpis;
  /// Per-CPI degradation level as decided at admission (kFull for CPIs the
  /// run never reached).
  std::vector<int> levels;
  std::uint64_t level_changes = 0;   ///< ladder transitions (both ways)
  std::uint64_t throttle_waits = 0;  ///< admissions that blocked on backlog
  std::uint64_t capacity_losses = 0;  ///< note_capacity_loss notifications
  int max_level = 0;                 ///< highest rung reached

  bool clean() const {
    return rejected_cpis.empty() && level_changes == 0 &&
           throttle_waits == 0 && capacity_losses == 0 && max_level == 0;
  }
};

/// The admission/ladder controller. One instance is shared by every rank of
/// a pipeline run; admit() is called by the Doppler ranks (first caller per
/// CPI decides, the rest read the memo), on_complete() by the CFAR sink.
class OverloadController {
 public:
  OverloadController(const OverloadConfig& cfg, index_t num_cpis);

  struct Admission {
    bool admit = true;
    DegradationLevel level = DegradationLevel::kFull;
    /// WallTimer time the decision was made — the CPI's admission stamp
    /// and its eq. (2) latency origin, identical for every caller.
    double at = 0.0;
  };

  /// Decide (or look up) the fate of `cpi`. The first caller paces to the
  /// arrival schedule, samples backlog/latency health, walks the ladder,
  /// and applies the queue_high bound; the decision is memoized so every
  /// later caller gets the identical answer. After close(), an undecided
  /// CPI is refused at once ({false, kShedInput, 0}) without being decided
  /// or ledgered.
  Admission admit(index_t cpi);

  /// Wake every admission waiting on pacing or the throttle and refuse all
  /// undecided CPIs from now on. The front end closes the controller when
  /// it stops, so no thread stays parked on a backlog that will never
  /// drain (e.g. a rank died with no spare). Safe from any thread.
  void close();

  /// Sink-side completion feed: `latency_seconds` is admission-to-CFAR
  /// latency, `shed` marks CPIs that degraded to a shed downstream (their
  /// latency is not a health sample). Unblocks throttled admissions.
  void on_complete(index_t cpi, double latency_seconds, bool shed);

  /// The memoized level for `cpi` (kFull when not yet decided). Lock-free
  /// and safe from any thread; a task that received one of the CPI's
  /// frames always sees the decision (it is written before the first
  /// send), while a task shedding a CPI nobody sent may race the front
  /// end's admission of it and read either answer.
  DegradationLevel level_for(index_t cpi) const {
    if (cpi < 0 || cpi >= static_cast<index_t>(memo_.size()))
      return DegradationLevel::kFull;
    const std::int8_t v =
        memo_[static_cast<size_t>(cpi)].load(std::memory_order_acquire);
    return v < 0 ? DegradationLevel::kFull : static_cast<DegradationLevel>(v);
  }

  const OverloadConfig& config() const { return cfg_; }

  /// Elastic-assist rung: install a hook consulted once, right before the
  /// ladder would first escalate past the reduced-beams rung. A hook that
  /// returns true (a rank migration toward the gating group is under way)
  /// suppresses that one escalation — capacity is being added instead of
  /// fidelity removed. If the backlog persists the ladder resumes climbing
  /// on the next admission. The hook must be nonblocking and must not call
  /// back into this controller (it runs under the admission lock).
  void set_elastic_assist(std::function<bool()> assist);

  /// Healing notification (PR 8): a rank was permanently lost and its
  /// group shrunk to the survivors, so pipeline capacity dropped.
  /// Escalates the ladder one producing rung immediately (the backlog has
  /// not had time to reflect the loss) and counts the loss in the ledger.
  /// Nonblocking; safe from any thread.
  void note_capacity_loss();

  /// Snapshot of the run's accounting (call after the stream drains).
  OverloadLedger ledger() const;

 private:
  bool slo_violated_locked() const;
  void step_ladder_locked();
  index_t backlog_locked() const { return admitted_ - completed_; }

  OverloadConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;

  // Per-CPI decisions; preallocated so admit() never reallocates while
  // level_for() reads concurrently. -1 = undecided. Written under mu_,
  // read lock-free by level_for().
  std::vector<std::atomic<std::int8_t>> memo_;
  std::vector<std::uint8_t> was_admitted_;
  std::vector<double> decided_at_;  // admission stamps, beside memo_
  bool closed_ = false;
  // CPIs the sink completed *before* their admission decision (a dead rank
  // lets the sink shed-drain far ahead of the source). Credited to
  // completed_ at admission so the throttle backlog can never deadlock on
  // a completion that already happened.
  std::vector<std::uint8_t> done_early_;

  std::function<bool()> elastic_assist_;  // PR 7 migration hook
  bool assist_consumed_ = false;

  double start_time_ = -1.0;  // arrival-schedule origin (first admission)
  index_t admitted_ = 0;
  index_t completed_ = 0;
  int level_ = 0;
  int healthy_streak_ = 0;
  int max_level_ = 0;
  std::uint64_t level_changes_ = 0;
  std::uint64_t throttle_waits_ = 0;
  std::uint64_t capacity_losses_ = 0;
  std::vector<index_t> rejected_;

  // Sliding window of recent end-to-end latencies for the p95 health test.
  static constexpr size_t kLatencyWindow = 32;
  std::vector<double> latencies_;
  size_t latency_next_ = 0;
};

}  // namespace ppstap::core
