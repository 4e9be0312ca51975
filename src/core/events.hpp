// One run event log: the single record of everything a pipeline run did
// besides streaming CPIs — sheds, injected faults, integrity repairs,
// overload decisions, migrations, healing and health verdicts.
//
// The paper accounts for every CPI through the Fig.-10 phases; the
// robustness extensions account for their events here, once. Every writer
// (the stage driver, the receive path, the spare and shrink healing paths,
// the overload controller, the health monitor and the elastic engine)
// appends a typed `Event` through `EventLog::record()`, which also emits the
// event's trace span and arms the flight recorder when the kind table says
// so. Everything else is derived from the records:
//
//  * registry counters — one loop over the kind table (`publish`);
//  * the three summaries PipelineResult keeps (`summarize`);
//  * healing, migration and health outcomes — queries over the stream
//    (`Events::count`, `of`, `cpis`, `shed_cause`).
//
// Nothing is recorded on a path that runs once per successful check or per
// frame: those tallies (checks passed, retransmissions, injected-fault
// counts, spare wakeups, weight-solver health) enter the log as one
// count-carrying record per rank at exit.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <vector>

#include "common/types.hpp"

namespace ppstap::core {

enum class EventKind : std::uint8_t {
  // --- CPI fate and transport -------------------------------------------
  kShed,             ///< a shed originated here; cause = admission | timeout |
                     ///< dead_peer | corrupt | abft | sweep
  kRetransmit,       ///< tally: checksum-failure refetches of one rank
  kDupDiscarded,     ///< tally: re-delivered frames one rank discarded
  // --- injected faults (tallies from the installed FaultPlan) ------------
  kFrameDelayed,
  kFrameDropped,
  kFrameCorrupted,
  kFrameJittered,
  kFrameDuplicated,
  kStageSlowdown,
  kFlip,
  kKill,
  // --- healing: one record per rank death -------------------------------
  kHealSpare,        ///< a pool spare assumed the rank; cause = death |
                     ///< quarantine; seconds = MTTR; cpi = resume CPI
  kHealShrink,       ///< the group shrank to its survivors (same fields,
                     ///< cpi = the epoch's begin CPI)
  kHealUncovered,    ///< neither mechanism applied
  kSpareWakeups,     ///< tally: standby poll wakeups of one spare
  // --- overload control --------------------------------------------------
  kDegraded,         ///< a CPI admitted below full fidelity; peer = level,
                     ///< note = level name
  kLevelChange,      ///< a ladder transition; peer = the new level
  kThrottle,         ///< an admission blocked on the backlog bound
  kCapacityLoss,     ///< a shrink told the controller capacity dropped
  kElasticAssist,    ///< the ladder asked for a migration instead
  // --- elastic migration: one record per attempt, at resolution ---------
  kMigrationCommit,  ///< rank = migrating rank, task = donor, peer =
                     ///< recipient task, cpi = barrier, cause = trigger
  kShrinkCommit,     ///< a shrink repair committed (rank = the dead rank)
  kMigrationRollback,  ///< note = abort reason
  // --- integrity (ABFT) ---------------------------------------------------
  kCheckPassed,      ///< tally: invariant checks that passed on one rank
  kCheckFailed,      ///< failed verifications of one stage execution
  kAbftRepair,       ///< the recompute passed
  kAbftEscalate,     ///< the recompute failed too
  kDigestMismatch,   ///< end-to-end digest failure; task = producing task,
                     ///< peer = producing rank
  // --- gray-failure health ----------------------------------------------
  kSuspect,
  kClear,
  kQuarantine,
  kFlapSuppressed,
  kVetoed,
  kRankHealth,       ///< exit summary of one rank: count = samples,
                     ///< seconds = service floor
  // --- weight-solver numerical health (tallies per weight rank) ---------
  kNonfiniteTraining,
  kLoadingRetry,
  kQuiescentFallback,
  kQrResidualRetry,
  kQrResidualReject,
};

inline constexpr int kNumEventKinds =
    static_cast<int>(EventKind::kQrResidualReject) + 1;

/// One row of the kind table: where a kind's records surface.
struct EventKindInfo {
  EventKind kind;
  const char* counter;   ///< registry counter name
  int track;             ///< obs trace track; kNoSpan for none
  const char* category;  ///< span category
  const char* span;      ///< span name; nullptr = the record's note
  const char* dump;      ///< obs::flight_dump reason; nullptr = none
};

inline constexpr int kNoSpan = 0x7fff;

/// The kind table, indexed by EventKind.
const std::array<EventKindInfo, kNumEventKinds>& event_kinds();
inline const EventKindInfo& info(EventKind k) {
  return event_kinds()[static_cast<size_t>(k)];
}

struct Event {
  EventKind kind = EventKind::kShed;
  /// WallTimer seconds when recorded; the span ends here. record() stamps
  /// it when left at zero.
  double time = 0.0;
  int rank = -1;      ///< global rank the event concerns (-1: none)
  int task = -1;      ///< stap::Task index (-1: none)
  index_t cpi = -1;   ///< CPI the event concerns (-1: none)
  const char* cause = "";  ///< cause / mechanism / trigger (static string)
  /// What the record adds to its kind's counter: 1 for a single event,
  /// the tally for an exit record.
  std::uint64_t count = 1;
  /// Duration ending at `time` (the span starts at time - seconds): MTTR,
  /// repair time, barrier window. Kinds without a span carry a measure
  /// here instead: a health verdict's peer z-score, a rank's service floor.
  double seconds = 0.0;
  /// The other party (a rank or a task), or a small kind-specific value
  /// such as the degradation level.
  int peer = -1;
  const char* note = "";  ///< short static detail: abort reason, level name
};

/// The records of one run, in record order, with the queries every
/// consumer uses.
struct Events {
  std::vector<Event> records;

  /// Sum of `count` over the kind's records — what its counter shows.
  std::uint64_t count(EventKind k) const;
  std::vector<Event> of(EventKind k) const { return of({k}); }
  std::vector<Event> of(std::initializer_list<EventKind> kinds) const;
  /// Every migration attempt (committed, shrink-committed or rolled back),
  /// in resolution order.
  std::vector<Event> migrations() const {
    return of({EventKind::kMigrationCommit, EventKind::kShrinkCommit,
               EventKind::kMigrationRollback});
  }
  /// One record per rank death: spare, shrink or uncovered.
  std::vector<Event> heals() const {
    return of({EventKind::kHealSpare, EventKind::kHealShrink,
               EventKind::kHealUncovered});
  }
  /// Every gray-failure detector transition, in scan order.
  std::vector<Event> verdicts() const {
    return of({EventKind::kSuspect, EventKind::kClear, EventKind::kQuarantine,
               EventKind::kFlapSuppressed, EventKind::kVetoed});
  }
  /// Distinct CPIs with a record of the kind, ascending.
  std::vector<index_t> cpis(EventKind k) const;
  /// The earliest shed-origin record of `cpi`, or nullptr if it never shed.
  const Event* shed_cause(index_t cpi) const;
  /// Degradation level the controller decided for `cpi` (0 = full).
  int level(index_t cpi) const;
  /// Highest ladder rung reached (decided or stepped to).
  int max_level() const;
};

/// The accounting PipelineResult keeps as plain fields (the live benchmark
/// reads them); `summarize` fills them and nothing else writes them.
struct FaultSummary {
  std::vector<index_t> shed_cpis;  ///< CPIs shed anywhere, ascending
  std::uint64_t retransmissions = 0;
  bool clean() const { return shed_cpis.empty() && retransmissions == 0; }
};
struct OverloadSummary {
  std::vector<index_t> rejected_cpis;  ///< rejected at admission, ascending
};
struct IntegritySummary {
  std::uint64_t checks_failed = 0;  ///< failed verifications (first + repeat)
  std::uint64_t repairs = 0;        ///< recomputes whose re-check passed
  std::uint64_t escalations = 0;    ///< persistent failures handed on
  bool clean() const { return checks_failed == 0; }
};
struct Summaries {
  FaultSummary faults;
  OverloadSummary overload;
  IntegritySummary integrity;
};
Summaries summarize(const Events& events);

/// Adds every kind's total to its registry counter (creating zero-valued
/// counters for kinds the run never saw, so publishing an empty stream
/// declares them all) and raises the `overload.max_level` gauge to the
/// run's highest rung.
void publish(const Events& events);

/// The append-only log one run owns. record() is safe from any thread.
class EventLog {
 public:
  /// Appends `e`, emits its span when tracing is on, and dumps the flight
  /// recorder when its kind asks for it.
  void record(Event e);
  /// Exit tally: one count-carrying record, skipped when `n` is zero.
  void tally(EventKind k, std::uint64_t n, int rank = -1, int task = -1);
  Events snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<Event> records_;
};

}  // namespace ppstap::core
