#include "core/events.hpp"

#include <algorithm>
#include <string_view>

#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ppstap::core {

namespace {

using K = EventKind;
constexpr int kFault = obs::kFaultTrack;
constexpr int kInteg = obs::kIntegrityTrack;

// clang-format off
constexpr std::array<EventKindInfo, kNumEventKinds> kTable{{
    {K::kShed,             "pipeline.cpis_shed",          kFault,  "fault",     "shed_cpi",           nullptr},
    {K::kRetransmit,       "comm.retransmissions",        kNoSpan, "",          "",                   nullptr},
    {K::kDupDiscarded,     "comm.dup_discarded",          kNoSpan, "",          "",                   nullptr},
    {K::kFrameDelayed,     "fault.frames_delayed",        kNoSpan, "",          "",                   nullptr},
    {K::kFrameDropped,     "fault.frames_dropped",        kNoSpan, "",          "",                   nullptr},
    {K::kFrameCorrupted,   "fault.frames_corrupted",      kNoSpan, "",          "",                   nullptr},
    {K::kFrameJittered,    "fault.frames_jittered",       kNoSpan, "",          "",                   nullptr},
    {K::kFrameDuplicated,  "fault.frames_duplicated",     kNoSpan, "",          "",                   nullptr},
    {K::kStageSlowdown,    "fault.stage_slowdowns",       kNoSpan, "",          "",                   nullptr},
    {K::kFlip,             "fault.flips",                 kNoSpan, "",          "",                   nullptr},
    {K::kKill,             "fault.kills",                 kNoSpan, "",          "",                   nullptr},
    {K::kHealSpare,        "healing.spare_takeovers",     kFault,  "fault",     "heal_spare",         "failover"},
    {K::kHealShrink,       "healing.shrinks",             kFault,  "fault",     "heal_shrink",        "shrink"},
    {K::kHealUncovered,    "healing.uncovered",           kNoSpan, "",          "",                   nullptr},
    {K::kSpareWakeups,     "spare.poll_wakeups",          kNoSpan, "",          "",                   nullptr},
    {K::kDegraded,         "overload.degraded_cpis",      kFault,  "overload",  nullptr,              nullptr},
    {K::kLevelChange,      "overload.level_changes",      kNoSpan, "",          "",                   nullptr},
    {K::kThrottle,         "overload.throttle_waits",     kNoSpan, "",          "",                   nullptr},
    {K::kCapacityLoss,     "overload.capacity_losses",    kNoSpan, "",          "",                   nullptr},
    {K::kElasticAssist,    "overload.elastic_assists",    kNoSpan, "",          "",                   nullptr},
    {K::kMigrationCommit,  "elastic.migrations_committed",   kFault, "fault",   "migration_commit",   nullptr},
    {K::kShrinkCommit,     "elastic.shrinks_committed",      kFault, "fault",   "shrink_commit",      nullptr},
    {K::kMigrationRollback, "elastic.migrations_rolled_back", kFault, "fault",  "migration_rollback", "migration_rollback"},
    {K::kCheckPassed,      "integrity.checks_passed",     kNoSpan, "",          "",                   nullptr},
    {K::kCheckFailed,      "integrity.checks_failed",     kNoSpan, "",          "",                   nullptr},
    {K::kAbftRepair,       "integrity.repairs",           kInteg,  "integrity", "abft_repair",        nullptr},
    {K::kAbftEscalate,     "integrity.escalations",       kInteg,  "integrity", "abft_escalate",      "integrity_escalation"},
    {K::kDigestMismatch,   "integrity.digest_mismatches", kInteg,  "integrity", "digest_mismatch",    nullptr},
    {K::kSuspect,          "health.suspects",             kNoSpan, "",          "",                   nullptr},
    {K::kClear,            "health.clears",               kNoSpan, "",          "",                   nullptr},
    {K::kQuarantine,       "health.quarantines",          kNoSpan, "",          "",                   nullptr},
    {K::kFlapSuppressed,   "health.flap_suppressed",      kNoSpan, "",          "",                   nullptr},
    {K::kVetoed,           "health.vetoed",               kNoSpan, "",          "",                   nullptr},
    {K::kRankHealth,       "health.samples",              kNoSpan, "",          "",                   nullptr},
    {K::kNonfiniteTraining, "stap.nonfinite_training_blocks", kNoSpan, "",      "",                   nullptr},
    {K::kLoadingRetry,     "stap.loading_retries",        kNoSpan, "",          "",                   nullptr},
    {K::kQuiescentFallback, "stap.quiescent_fallbacks",   kNoSpan, "",          "",                   nullptr},
    {K::kQrResidualRetry,  "stap.qr_residual_retries",    kNoSpan, "",          "",                   nullptr},
    {K::kQrResidualReject, "stap.qr_residual_rejects",    kNoSpan, "",          "",                   nullptr},
}};
// clang-format on

constexpr bool table_in_kind_order() {
  for (int i = 0; i < kNumEventKinds; ++i)
    if (static_cast<int>(kTable[static_cast<size_t>(i)].kind) != i)
      return false;
  return true;
}
static_assert(table_in_kind_order(), "kind table rows must follow EventKind");

}  // namespace

const std::array<EventKindInfo, kNumEventKinds>& event_kinds() {
  return kTable;
}

std::uint64_t Events::count(EventKind k) const {
  std::uint64_t n = 0;
  for (const Event& e : records) n += e.kind == k ? e.count : 0;
  return n;
}

std::vector<Event> Events::of(std::initializer_list<EventKind> kinds) const {
  std::vector<Event> out;
  for (const Event& e : records)
    if (std::find(kinds.begin(), kinds.end(), e.kind) != kinds.end())
      out.push_back(e);
  return out;
}

std::vector<index_t> Events::cpis(EventKind k) const {
  std::vector<index_t> out;
  for (const Event& e : records)
    if (e.kind == k) out.push_back(e.cpi);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const Event* Events::shed_cause(index_t cpi) const {
  const Event* first = nullptr;
  for (const Event& e : records)
    if (e.kind == EventKind::kShed && e.cpi == cpi &&
        (first == nullptr || e.time < first->time))
      first = &e;
  return first;
}

int Events::level(index_t cpi) const {
  for (const Event& e : records)
    if (e.kind == EventKind::kDegraded && e.cpi == cpi) return e.peer;
  return 0;
}

int Events::max_level() const {
  int m = 0;
  for (const Event& e : records)
    if (e.kind == EventKind::kDegraded || e.kind == EventKind::kLevelChange)
      m = std::max(m, e.peer);
  return m;
}

Summaries summarize(const Events& events) {
  Summaries s;
  s.faults.shed_cpis = events.cpis(EventKind::kShed);
  s.faults.retransmissions = events.count(EventKind::kRetransmit);
  for (const Event& e : events.records)
    if (e.kind == EventKind::kShed && std::string_view(e.cause) == "admission")
      s.overload.rejected_cpis.push_back(e.cpi);
  std::sort(s.overload.rejected_cpis.begin(), s.overload.rejected_cpis.end());
  s.integrity.checks_failed = events.count(EventKind::kCheckFailed);
  s.integrity.repairs = events.count(EventKind::kAbftRepair);
  s.integrity.escalations = events.count(EventKind::kAbftEscalate);
  return s;
}

void publish(const Events& events) {
  auto& reg = obs::Registry::global();
  for (const EventKindInfo& k : kTable) {
    // A CPI can have several shed origins (one per rank that lost it);
    // the counter counts CPIs.
    reg.counter(k.counter)
        .add(k.kind == EventKind::kShed ? events.cpis(k.kind).size()
                                        : events.count(k.kind));
  }
  reg.gauge("overload.max_level").raise(events.max_level());
}

void EventLog::record(Event e) {
  if (e.time == 0.0) e.time = WallTimer::now();
  const EventKindInfo& k = info(e.kind);
  {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(e);
  }
  if (k.track != kNoSpan && obs::tracing_enabled())
    obs::emit({k.span != nullptr ? k.span : e.note, k.category, e.rank,
               k.track, static_cast<std::int64_t>(e.cpi), e.time - e.seconds,
               e.time, -1, static_cast<std::int64_t>(e.peer)});
  if (k.dump != nullptr) obs::flight_dump(k.dump);
}

void EventLog::tally(EventKind k, std::uint64_t n, int rank, int task) {
  if (n == 0) return;
  Event e{k, 0.0, rank, task};
  e.count = n;
  record(e);
}

Events EventLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Events{records_};
}

}  // namespace ppstap::core
