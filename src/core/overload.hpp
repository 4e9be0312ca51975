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
//  * An admission window for the unpaced throttle mode (a closed loop):
//    admitted-but-unfinished CPIs are capped at clamp(ceil(L / P), 2,
//    queue_high), where P is the eq. (1) period — the windowed median over
//    recent CPIs of the largest per-stage service time (recv + comp + send
//    minus every wait), fed by the stage driver — and L the eq. (2)
//    latency, the windowed minimum of admission-to-sink latency. By
//    Little's law L / P CPIs in flight sustain the full rate; every CPI
//    admitted beyond that only waits in a queue, stretching latency
//    without adding throughput. P is measured from service times, not the
//    sink's rate, so a cap that binds cannot pull its own estimate down.
//    Until both estimates have samples the cap is its floor, 2. Paced
//    arrivals (the schedule bounds in-flight work) and the reject mode
//    keep the plain queue_high bound.
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
#include "core/events.hpp"

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

  /// Throws ppstap::Error on an inconsistent configuration.
  void validate() const;
};

/// The admission/ladder controller. One instance is shared by every rank of
/// a pipeline run; admit() is called by the Doppler ranks (first caller per
/// CPI decides, the rest read the memo), on_complete() by the CFAR sink.
/// Every decision is recorded into the run's event log: rejections (a
/// kShed with cause "admission"), degraded admissions, ladder transitions,
/// throttle waits and capacity losses.
class OverloadController {
 public:
  OverloadController(const OverloadConfig& cfg, index_t num_cpis,
                     EventLog& log);

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
  /// or recorded.
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

  /// Block until `cpi` is decided or the controller closes. Returns the
  /// decision stamp (Admission::at), or -1 when it closed first. A CPI's
  /// receive budget downstream starts no earlier than this stamp: before
  /// it the CPI does not exist yet.
  double wait_decided(index_t cpi);

  /// Stage-driver feed of the admission window: one rank spent
  /// `busy_seconds` of service (its Fig.-10 cycle minus receive, send and
  /// source waits) on `cpi`. The CPI's eq. (1) sample is the largest over
  /// every rank. A no-op, without locking, when the window does not apply.
  void note_stage_busy(index_t cpi, double busy_seconds);

  /// The admission window's current inputs and bound.
  struct Window {
    double period = 0.0;   ///< P: median largest stage service, seconds
    double latency = 0.0;  ///< L: minimum admission-to-sink latency
    index_t bound = 0;     ///< in-flight cap now in force: queue_high
                           ///< when the window is off, min(2, queue_high)
                           ///< until it has samples
  };
  Window window() const;

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
  /// not had time to reflect the loss) and records the loss.
  /// Nonblocking; safe from any thread.
  void note_capacity_loss();

 private:
  bool slo_violated_locked() const;
  Window window_locked() const;
  void step_ladder_locked();
  index_t backlog_locked() const { return admitted_ - completed_; }
  void set_level_locked(int level);

  OverloadConfig cfg_;
  EventLog& log_;
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

  // Sliding window of recent end-to-end latencies for the p95 health test
  // and the admission window's L.
  static constexpr size_t kLatencyWindow = 32;
  std::vector<double> latencies_;
  size_t latency_next_ = 0;

  // Admission window: on in unpaced throttle mode. stage_busy_ holds each
  // CPI's largest stage service time (0 = none yet); P is the median over
  // the kPeriodWindow CPIs before the newest one the sink completed, whose
  // upstream stages have all finished it.
  static constexpr index_t kPeriodWindow = 16;
  const bool windowed_;
  std::vector<double> stage_busy_;
  index_t sink_newest_ = -1;
};

}  // namespace ppstap::core
