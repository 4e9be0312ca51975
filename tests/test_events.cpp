// Run event log tests: the kind table, record/query semantics, the
// summaries and registry counters derived from the records, concurrent
// recording, and the pipeline-level accounting built on it — every kind's
// counter present after a clean run, a killed rank's kill and heal, the
// spare pool's wakeups summed over spares, and overload.max_level as the
// maximum across runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "comm/fault.hpp"
#include "core/assignment.hpp"
#include "core/events.hpp"
#include "core/overload.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "synth/steering.hpp"

namespace ppstap::core {
namespace {

using stap::Task;

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

std::map<std::string, std::uint64_t> event_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const EventKindInfo& k : event_kinds()) out[k.counter] = counter(k.counter);
  return out;
}

Event shed(index_t cpi, double time, const char* cause) {
  return {EventKind::kShed, time, -1, -1, cpi, cause};
}

struct Fixture {
  stap::StapParams p = [] {
    stap::StapParams p = stap::StapParams::small_test();
    p.num_range = 48;
    p.num_channels = 4;
    p.num_pulses = 16;
    p.num_beams = 2;
    p.num_hard = 6;
    p.stagger = 2;
    p.num_segments = 2;
    p.easy_samples_per_cpi = 12;
    p.hard_samples_per_segment = 10;
    p.validate();
    return p;
  }();
  synth::ScenarioParams sp = [this] {
    synth::ScenarioParams sp;
    sp.num_range = p.num_range;
    sp.num_channels = p.num_channels;
    sp.num_pulses = p.num_pulses;
    sp.clutter.num_patches = 4;
    sp.chirp_length = 6;
    sp.targets.push_back(synth::Target{21, 8.0 / 16.0, 0.05, 15.0});
    return sp;
  }();

  PipelineResult run(const FaultToleranceConfig& ft, comm::FaultPlan* plan,
                     index_t n_cpis = 6) const {
    synth::ScenarioGenerator gen(sp);
    ParallelStapPipeline par(
        p, NodeAssignment{},
        synth::steering_matrix(p.num_channels, p.num_beams, p.beam_center_rad,
                               p.beam_span_rad),
        {gen.replica().begin(), gen.replica().end()});
    par.set_fault_tolerance(ft);
    par.set_fault_plan(plan);
    return par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);
  }
};

// Reads the exported counters without creating any.
std::map<std::string, double> exported_counters() {
  std::map<std::string, double> out;
  const obs::Json reg = obs::Registry::global().to_json();
  if (const obs::Json* c = reg.find("counters"); c != nullptr && c->is_object())
    for (const auto& [k, v] : c->as_object()) out[k] = v.as_number();
  return out;
}

// Defined first, so it runs before any other test here has touched the
// registry: the run itself must create every kind's counter.
TEST(EventPipeline, CleanRunPublishesEveryCounterAtZero) {
  const Fixture f;
  const auto before = exported_counters();
  const auto res = f.run(FaultToleranceConfig{}, nullptr);
  EXPECT_TRUE(res.events.records.empty());
  const auto after = exported_counters();
  for (const EventKindInfo& k : event_kinds()) {
    ASSERT_EQ(after.count(k.counter), 1u) << k.counter;
    const auto was = before.find(k.counter);
    EXPECT_EQ(after.at(k.counter), was == before.end() ? 0.0 : was->second)
        << k.counter;
  }
}

// --- the log itself ----------------------------------------------------------

TEST(EventKinds, EveryKindHasItsOwnCounterAndASpanNameWhenTraced) {
  std::set<std::string> names;
  for (const EventKindInfo& k : event_kinds()) {
    EXPECT_TRUE(names.insert(k.counter).second) << k.counter;
    if (k.track != kNoSpan) {
      EXPECT_TRUE(k.span == nullptr || std::string(k.span) != "")
          << k.counter;
    }
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumEventKinds));
  EXPECT_STREQ(info(EventKind::kShed).span, "shed_cpi");
  EXPECT_STREQ(info(EventKind::kAbftEscalate).dump, "integrity_escalation");
  EXPECT_STREQ(info(EventKind::kHealSpare).dump, "failover");
  EXPECT_STREQ(info(EventKind::kMigrationRollback).dump, "migration_rollback");
}

TEST(EventLog, QueriesReadTheRecordedStream) {
  EventLog log;
  log.record(shed(4, 2.0, "timeout"));
  log.record(shed(4, 1.0, "dead_peer"));  // earlier origin, recorded later
  log.record(shed(2, 3.0, "admission"));
  log.tally(EventKind::kRetransmit, 5, /*rank=*/1);
  log.tally(EventKind::kRetransmit, 0, /*rank=*/2);  // zero: skipped
  log.record({EventKind::kCheckFailed, 0.0, 0, 0, 2, "", 2});
  log.record({EventKind::kAbftEscalate, 0.0, 0, 0, 2});
  const Events ev = log.snapshot();

  EXPECT_EQ(ev.records.size(), 6u);
  EXPECT_EQ(ev.count(EventKind::kRetransmit), 5u);
  EXPECT_EQ(ev.of(EventKind::kShed).size(), 3u);
  EXPECT_EQ(ev.cpis(EventKind::kShed), (std::vector<index_t>{2, 4}));
  ASSERT_NE(ev.shed_cause(4), nullptr);
  EXPECT_STREQ(ev.shed_cause(4)->cause, "dead_peer");
  EXPECT_EQ(ev.shed_cause(3), nullptr);

  const Summaries s = summarize(ev);
  EXPECT_EQ(s.faults.shed_cpis, (std::vector<index_t>{2, 4}));
  EXPECT_EQ(s.faults.retransmissions, 5u);
  EXPECT_EQ(s.overload.rejected_cpis, std::vector<index_t>{2});
  EXPECT_EQ(s.integrity.checks_failed, 2u);
  EXPECT_EQ(s.integrity.escalations, 1u);
  EXPECT_EQ(s.integrity.repairs, 0u);
}

TEST(EventLog, PublishAddsEachKindOnceAndCountsShedCpis) {
  EventLog log;
  log.record(shed(7, 1.0, "timeout"));
  log.record(shed(7, 2.0, "timeout"));  // a second rank lost the same CPI
  log.tally(EventKind::kKill, 2);
  const auto before = event_counters();
  publish(log.snapshot());
  const auto after = event_counters();
  for (const auto& [name, v] : after) {
    const std::uint64_t want = name == "pipeline.cpis_shed" ? 1
                               : name == "fault.kills"      ? 2
                                                            : 0;
    EXPECT_EQ(v - before.at(name), want) << name;
  }
}

TEST(EventLog, ConcurrentWritersLoseNothing) {
  EventLog log;
  constexpr int kThreads = 4, kEach = 500;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&log, t] {
      for (int i = 0; i < kEach; ++i)
        log.record({EventKind::kDigestMismatch, 0.0, t, -1, i});
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(log.snapshot().count(EventKind::kDigestMismatch),
            static_cast<std::uint64_t>(kThreads * kEach));
}

// overload.max_level is the highest rung any run in the process reached,
// not the last degraded run's.
TEST(EventLog, MaxLevelGaugeIsTheMaximumAcrossRuns) {
  auto run_to_level = [](int admissions) {
    OverloadConfig cfg;
    cfg.enabled = true;
    cfg.queue_low = 2;
    cfg.queue_high = 6;
    EventLog log;
    OverloadController ctrl(cfg, 8, log);
    // Nothing completes: admission i sees backlog i, so the proportional
    // ladder reaches rung admissions - 3.
    for (index_t i = 0; i < admissions; ++i) ctrl.admit(i);
    return log.snapshot();
  };
  const Events high = run_to_level(6);
  const Events low = run_to_level(4);
  ASSERT_EQ(high.max_level(), 3);
  ASSERT_EQ(low.max_level(), 1);
  auto& gauge = obs::Registry::global().gauge("overload.max_level");
  const double before = gauge.value();
  publish(high);
  publish(low);
  EXPECT_EQ(gauge.value(), std::max(before, 3.0));
}

// --- pipeline-level accounting ---------------------------------------------

TEST(EventPipeline, KilledRankReportsOneKillAndItsHeal) {
  const Fixture f;
  const NodeAssignment a;
  const int victim = a.first_rank(Task::kHardWeight);
  comm::FaultPlan plan;
  plan.add(comm::FaultPlan::kill_on_recv(victim, /*tag=*/2 * 16 + 1));
  FaultToleranceConfig ft;
  ft.spares = 1;
  const std::uint64_t kills0 = counter("fault.kills");
  const std::uint64_t heals0 = counter("healing.spare_takeovers");
  const auto res = f.run(ft, &plan);
  EXPECT_EQ(counter("fault.kills") - kills0, 1u);
  EXPECT_EQ(counter("healing.spare_takeovers") - heals0, 1u);
  const auto heals = res.events.heals();
  ASSERT_EQ(heals.size(), 1u);
  EXPECT_EQ(heals[0].rank, victim);
  EXPECT_EQ(heals[0].kind, EventKind::kHealSpare);
}

// Every idle spare records its own standby wakeups; the counter is the
// pool's total, not whichever spare reported last.
TEST(EventPipeline, SpareWakeupsSumOverThePool) {
  const Fixture f;
  FaultToleranceConfig ft;
  ft.spares = 2;
  const std::uint64_t wakeups0 = counter("spare.poll_wakeups");
  const auto res = f.run(ft, nullptr);
  const auto tallies = res.events.of(EventKind::kSpareWakeups);
  std::set<int> ranks;
  std::uint64_t sum = 0;
  for (const Event& e : tallies) {
    ranks.insert(e.rank);
    sum += e.count;
  }
  EXPECT_EQ(tallies.size(), 2u);
  EXPECT_EQ(ranks.size(), tallies.size());
  EXPECT_EQ(counter("spare.poll_wakeups") - wakeups0, sum);
  EXPECT_TRUE(res.events.heals().empty());
}

}  // namespace
}  // namespace ppstap::core
