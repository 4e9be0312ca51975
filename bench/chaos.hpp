// One chaos scenario harness for the fault benches: ext_survivability, the
// ext_elastic chaos panel, ext_grayfail and ext_fault_tolerance run every
// fault-injected pipeline run through Runner::run.
//
// A Scenario is data: the assignment, the fault rules, the runtime configs
// and what the run must show. The runner builds the pipeline from it,
// streams the fixture's scene under a FaultPlan seeded by the caller, and
// checks one invariant set on every run (see DESIGN.md, "One chaos
// harness"):
//
//  * the stream is full length and no CPI is lost: each one completed at
//    the sink, or, in a run where a CFAR rank died, the end-of-run sweep
//    shed it (the dead rank's tick never came);
//  * no shed is duplicated or out of range, a shed CPI has no detections,
//    every shed has a recorded cause, and none at all where the scenario
//    promises a shed-free stream;
//  * accounting: every kKill rule fired exactly once, each death has one
//    heal record (spare or shrink with cause "death", or uncovered), and
//    every duplicated frame was discarded by its receiver;
//  * the expected heal counts, each repair with an MTTR in bounds and each
//    shrink barrier inside the stream;
//  * a forced migration resolved (committed or rolled back, never wedged);
//  * every non-shed CPI below `exact_below` reproduces the fault-free
//    reference: bitwise against the cached same-assignment parallel run, or
//    within float tolerance of stap::SequentialStap where the scenario
//    expects a shrink (the survivors re-partition the group).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "comm/fault.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "core/tags.hpp"
#include "stap/sequential.hpp"
#include "synth/steering.hpp"

namespace ppstap::bench::chaos {

using core::EventKind;
using Nodes = std::array<int, stap::kNumTasks>;
using Stream = std::vector<std::vector<stap::Detection>>;

/// The STAP shape and scene every run of one bench streams.
struct Fixture {
  stap::StapParams p;
  synth::ScenarioParams sp;
  index_t warmup = 1;
  index_t cooldown = 1;
  /// Detector config of the fault-free reference runs (off by default): a
  /// bench that arms it can gate false quarantines on its reference.
  core::HealthConfig health;
};

/// The 48-range, 4-channel, 16-pulse scene of the survivability soak and
/// the elastic chaos panel.
inline Fixture small_fixture() {
  Fixture f;
  f.p = stap::StapParams::small_test();
  f.p.num_range = 48;
  f.p.num_channels = 4;
  f.p.num_pulses = 16;
  f.p.num_beams = 2;
  f.p.num_hard = 6;
  f.p.stagger = 2;
  f.p.num_segments = 2;
  f.p.easy_samples_per_cpi = 12;
  f.p.hard_samples_per_segment = 10;
  f.p.cfar_ref = 4;
  f.p.cfar_guard = 1;
  f.p.validate();
  f.sp.num_range = f.p.num_range;
  f.sp.num_channels = f.p.num_channels;
  f.sp.num_pulses = f.p.num_pulses;
  f.sp.clutter.num_patches = 6;
  f.sp.clutter.cnr_db = 35.0;
  f.sp.chirp_length = 6;
  f.sp.targets.push_back(synth::Target{21, 8.0 / 16.0, 0.05, 15.0});
  return f;
}

/// The host-pipeline scene of the fault-tolerance, ABFT and gray-failure
/// benches: 8 channels, 2 beams, 12 hard bins in 3 segments, one target at
/// range cell 45; range, pulses and clutter vary per bench.
inline Fixture host_fixture(index_t num_range, index_t num_pulses,
                            int clutter_patches, double cnr_db) {
  Fixture f;
  f.p.num_range = num_range;
  f.p.num_channels = 8;
  f.p.num_pulses = num_pulses;
  f.p.num_beams = 2;
  f.p.num_hard = 12;
  f.p.stagger = 2;
  f.p.num_segments = 3;
  f.p.easy_samples_per_cpi = 24;
  f.p.hard_samples_per_segment = 16;
  f.p.cfar_ref = 6;
  f.p.cfar_guard = 2;
  f.p.validate();
  f.sp.num_range = f.p.num_range;
  f.sp.num_channels = f.p.num_channels;
  f.sp.num_pulses = f.p.num_pulses;
  f.sp.clutter.num_patches = clutter_patches;
  f.sp.clutter.cnr_db = cnr_db;
  f.sp.chirp_length = 16;
  f.sp.targets.push_back(synth::Target{45, 10.0 / 32.0, 0.0, 12.0});
  f.warmup = 2;
  f.cooldown = 2;
  return f;
}

/// One fault-injected run: what to build, what to break, what must hold.
struct Scenario {
  std::string name;
  Nodes nodes{{1, 1, 1, 1, 1, 1, 1}};
  std::vector<comm::FaultRule> rules;
  index_t n_cpis = 10;
  // Runtime configs, applied as given (never read from the environment).
  core::FaultToleranceConfig ft;
  core::OverloadConfig ov;
  core::ElasticConfig el;  // a forced migration must resolve
  core::HealthConfig health;
  // Expectations. The kill count is the number of kKill rules.
  int spare_heals = 0;
  int shrink_heals = 0;
  int uncovered = 0;
  bool allow_shed = true;    // false: the whole stream must be shed-free
  index_t exact_below = -1;  // value-check ceiling (-1: whole stream)
  double mttr_bound_s = 10.0;
  bool smoke = false;        // member of the --smoke subset
};

/// A rule on the elastic protocol's VOTE or VERDICT traffic at any barrier.
inline comm::FaultRule protocol_rule(comm::FaultType type,
                                     comm::FaultPoint point, int src,
                                     int dest, int slot,
                                     int max_applications = -1,
                                     double delay_s = 0.0) {
  comm::FaultRule r;
  r.type = type;
  r.point = point;
  r.src = src;
  r.dest = dest;
  r.tag_period = comm::kTagStride;
  r.tag_phase = slot;
  r.max_applications = max_applications;
  r.delay_seconds = delay_s;
  return r;
}

/// Bitwise equality of one CPI's detections.
inline bool same_detections(const std::vector<stap::Detection>& got,
                            const std::vector<stap::Detection>& ref) {
  return std::equal(got.begin(), got.end(), ref.begin(), ref.end(),
                    [](const stap::Detection& x, const stap::Detection& y) {
                      return x.doppler_bin == y.doppler_bin &&
                             x.beam == y.beam && x.range == y.range &&
                             x.power == y.power && x.threshold == y.threshold;
                    });
}

/// Bitwise equality of two whole streams.
inline bool same_stream(const Stream& a, const Stream& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), same_detections);
}

/// Same cells, powers within float tolerance: the check against the
/// sequential reference, whose arithmetic order differs.
inline bool within_tolerance(const std::vector<stap::Detection>& got,
                             const std::vector<stap::Detection>& ref) {
  return std::equal(got.begin(), got.end(), ref.begin(), ref.end(),
                    [](const stap::Detection& x, const stap::Detection& y) {
                      return x.doppler_bin == y.doppler_bin &&
                             x.beam == y.beam && x.range == y.range &&
                             std::abs(x.power - y.power) <=
                                 2e-2f * std::abs(y.power) + 1e-5f;
                    });
}

inline size_t total_detections(const core::PipelineResult& r) {
  size_t n = 0;
  for (const auto& d : r.detections) n += d.size();
  return n;
}

/// A run and the first invariant it broke (empty: all held).
struct Outcome {
  core::PipelineResult r;
  std::string why;
  size_t exact = 0;       // CPIs value-checked against the reference
  double max_mttr = 0.0;  // slowest repair, seconds
  bool ok() const { return why.empty(); }
};

/// A fault-free run per assignment and its wall time.
struct Reference {
  core::PipelineResult r;
  double wall_s = 0.0;
  /// Nothing shed, retransmitted, healed or migrated.
  bool clean() const {
    return r.faults.clean() && r.events.heals().empty() &&
           r.events.migrations().empty();
  }
};

class Runner {
 public:
  explicit Runner(Fixture f)
      : f_(std::move(f)),
        gen_(f_.sp),
        steering_(synth::steering_matrix(f_.p.num_channels, f_.p.num_beams,
                                         f_.p.beam_center_rad,
                                         f_.p.beam_span_rad)),
        replica_(gen_.replica().begin(), gen_.replica().end()) {}

  const Fixture& fixture() const { return f_; }
  const synth::ScenarioGenerator& scene() const { return gen_; }

  /// A pipeline on `nodes` over the fixture's shape, steering and replica.
  core::ParallelStapPipeline pipeline(const Nodes& nodes) const {
    core::NodeAssignment a;
    a.nodes = nodes;
    return core::ParallelStapPipeline(f_.p, a, steering_, replica_);
  }

  /// The fault-free run on `nodes`, at least `n_cpis` long; run once per
  /// assignment (again only if a longer stream is asked for). A CPI's
  /// output does not depend on the stream's length.
  const Reference& reference(const Nodes& nodes, index_t n_cpis) {
    Reference& ref = refs_[nodes];
    if (ref.r.detections.size() >= static_cast<size_t>(n_cpis)) return ref;
    Scenario clean;
    clean.nodes = nodes;
    clean.n_cpis = n_cpis;
    clean.health = f_.health;
    const double t0 = WallTimer::now();
    ref.r = execute(clean, nullptr);
    ref.wall_s = WallTimer::now() - t0;
    return ref;
  }

  /// Runs the scenario under a FaultPlan seeded with `seed` and checks the
  /// invariants; a broken one is printed and counted.
  Outcome run(const Scenario& sc, std::uint64_t seed) {
    comm::FaultPlan plan(seed);
    for (const auto& rule : sc.rules) plan.add(rule);
    Outcome out;
    out.r = execute(sc, &plan);
    check(sc, out);
    if (!out.ok()) {
      ++failures_;
      std::printf("  FAIL %s: %s\n", sc.name.c_str(), out.why.c_str());
    }
    return out;
  }

  /// Runs that broke an invariant so far.
  int failures() const { return failures_; }

 private:
  core::PipelineResult execute(const Scenario& sc, comm::FaultPlan* plan) {
    auto pipe = pipeline(sc.nodes);
    pipe.set_fault_tolerance(sc.ft);
    pipe.set_overload(sc.ov);
    pipe.set_elastic(sc.el);
    pipe.set_health(sc.health);
    pipe.set_fault_plan(plan);
    return pipe.run(gen_, sc.n_cpis, f_.warmup, f_.cooldown);
  }

  /// Fault-free per-CPI detections of the sequential pipeline, sorted the
  /// way PipelineResult sorts.
  const Stream& sequential(index_t n_cpis) {
    if (seq_.size() >= static_cast<size_t>(n_cpis)) return seq_;
    stap::SequentialStap stap(f_.p, steering_, gen_.replica());
    seq_.clear();
    for (index_t cpi = 0; cpi < n_cpis; ++cpi) {
      auto dets = stap.process(gen_.generate(cpi)).detections;
      std::sort(dets.begin(), dets.end(), [](const auto& x, const auto& y) {
        return std::tie(x.doppler_bin, x.beam, x.range) <
               std::tie(y.doppler_bin, y.beam, y.range);
      });
      seq_.push_back(std::move(dets));
    }
    return seq_;
  }

  void check(const Scenario& sc, Outcome& out) {
    const core::PipelineResult& r = out.r;
    const core::Events& ev = r.events;
    auto fail = [&out](std::string why) {
      if (out.ok()) out.why = std::move(why);
    };
    const auto n = static_cast<size_t>(sc.n_cpis);
    if (r.detections.size() != n || r.completion_times.size() != n) {
      fail("stream size mismatch");
      return;
    }

    // Accounting: each kill rule fired once and each death has exactly one
    // heal record (uncovered records carry no cause); each re-delivered
    // frame was discarded by its receiver's seq ledger.
    const auto kills = static_cast<std::uint64_t>(std::count_if(
        sc.rules.begin(), sc.rules.end(), [](const comm::FaultRule& rule) {
          return rule.type == comm::FaultType::kKill;
        }));
    if (ev.count(EventKind::kKill) != kills) fail("kill count mismatch");
    std::uint64_t deaths = 0;
    for (const core::Event& h : ev.heals())
      if (h.kind == EventKind::kHealUncovered ||
          std::string_view(h.cause) == "death")
        ++deaths;
    if (deaths != ev.count(EventKind::kKill))
      fail("kills != heals of deaths");
    if (ev.count(EventKind::kFrameDuplicated) !=
        ev.count(EventKind::kDupDiscarded))
      fail("duplicated frames != discarded duplicates");

    // Healing: exactly the expected mechanisms, each repair with a positive
    // MTTR inside the scenario's bound.
    const std::pair<EventKind, int> expected[] = {
        {EventKind::kHealSpare, sc.spare_heals},
        {EventKind::kHealShrink, sc.shrink_heals},
        {EventKind::kHealUncovered, sc.uncovered}};
    for (const auto& [kind, want] : expected)
      if (ev.count(kind) != static_cast<std::uint64_t>(want))
        fail(std::string(core::info(kind).counter) + " count mismatch");
    for (const core::Event& h : ev.heals()) {
      if (h.kind == EventKind::kHealUncovered) continue;
      if (!(h.seconds > 0.0 && h.seconds <= sc.mttr_bound_s))
        fail("mttr out of bounds");
      if (h.kind == EventKind::kHealShrink &&
          !(h.cpi > 0 && h.cpi < sc.n_cpis - 1))
        fail("shrink barrier outside the stream");
      out.max_mttr = std::max(out.max_mttr, h.seconds);
    }
    if (!sc.el.forced.empty() && ev.migrations().empty())
      fail("no migration attempt");

    // Only a dead CFAR rank's missing tick leaves a CPI without a completion
    // time (the end-of-run sweep sheds it). The sweep fires after any death,
    // so it excuses nothing in a run where no CFAR rank died.
    bool cfar_died = false;
    for (const core::Event& h : ev.heals())
      cfar_died |= h.task == static_cast<int>(stap::Task::kCfar);
    std::vector<bool> shed(n, false), swept(n, false);
    for (const core::Event& e : ev.of(EventKind::kShed))
      if (cfar_died && std::string_view(e.cause) == "sweep" && e.cpi >= 0 &&
          e.cpi < sc.n_cpis)
        swept[static_cast<size_t>(e.cpi)] = true;
    for (index_t c : r.faults.shed_cpis) {
      const auto k = static_cast<size_t>(c);
      if (ev.shed_cause(c) == nullptr) fail("shed CPI without a cause");
      if (k >= n || shed[k]) {
        fail("duplicate/out-of-range shed");
        continue;
      }
      shed[k] = true;
    }
    if (!sc.allow_shed && !r.faults.shed_cpis.empty()) fail("unexpected shed");

    // A shrink re-partitions the survivors' group, so the arithmetic may
    // legitimately differ from the fault-free run's; every other run must
    // reproduce it bit for bit.
    const bool bitwise = sc.shrink_heals == 0;
    const Stream* ref = nullptr;
    if (bitwise) {
      const Reference& base = reference(sc.nodes, sc.n_cpis);
      if (base.clean())
        ref = &base.r.detections;
      else
        fail("reference run not clean");
    }
    const Stream& seq = bitwise ? seq_ : sequential(sc.n_cpis);
    const index_t check_below =
        sc.exact_below >= 0 ? sc.exact_below : sc.n_cpis;
    for (index_t cpi = 0; out.ok() && cpi < sc.n_cpis; ++cpi) {
      const auto k = static_cast<size_t>(cpi);
      if (r.completion_times[k] <= 0.0 && !swept[k]) {
        fail("lost CPI " + std::to_string(cpi));
        break;
      }
      if (shed[k]) {
        if (!r.detections[k].empty())
          fail("shed CPI " + std::to_string(cpi) + " has detections");
        continue;
      }
      if (cpi >= check_below) continue;
      const bool good = ref != nullptr
                            ? same_detections(r.detections[k], (*ref)[k])
                            : within_tolerance(r.detections[k], seq[k]);
      if (!good) {
        fail("CPI " + std::to_string(cpi) + " does not match reference");
        break;
      }
      ++out.exact;
    }
  }

  Fixture f_;
  synth::ScenarioGenerator gen_;
  linalg::MatrixCF steering_;
  std::vector<cfloat> replica_;
  std::map<Nodes, Reference> refs_;
  Stream seq_;
  int failures_ = 0;
};

/// The measured fields of one run's result row (no identity keys, so a
/// bench can merge them into a row of its own kind).
inline void add_fields(obs::Json& row, const Outcome& o) {
  const core::Events& ev = o.r.events;
  row["kills"] = ev.count(EventKind::kKill);
  row["spare_heals"] = ev.count(EventKind::kHealSpare);
  row["shrink_heals"] = ev.count(EventKind::kHealShrink);
  row["uncovered"] = ev.count(EventKind::kHealUncovered);
  row["shed_cpis"] = o.r.faults.shed_cpis.size();
  row["exact_cpis"] = o.exact;
  row["max_mttr_s"] = o.max_mttr;
  row["retransmissions"] = o.r.faults.retransmissions;
  row["resolved"] = ev.migrations().empty() ? 0 : 1;
  row["pass"] = o.ok() ? 1 : 0;
}

struct TableResult {
  size_t ran = 0;
  double worst_mttr = 0.0;
};

/// Runs a scenario table (only its smoke members when `smoke`), seeding
/// scenario i's plan with `seed_base + i`; prints one line and records one
/// `kind` row per run. Failures are counted by the runner.
inline TableResult run_table(Runner& runner,
                             const std::vector<Scenario>& scenarios,
                             std::uint64_t seed_base, bool smoke,
                             const char* kind) {
  std::printf("%-34s %5s %5s %5s %4s %5s %8s %-12s\n", "scenario", "spare",
              "shrnk", "uncov", "shed", "exact", "mttr(s)", "migration");
  TableResult t;
  for (size_t si = 0; si < scenarios.size(); ++si) {
    const Scenario& sc = scenarios[si];
    if (smoke && !sc.smoke) continue;
    ++t.ran;
    const Outcome o = runner.run(sc, seed_base + si);
    const auto n = [&o](EventKind k) {
      return static_cast<unsigned long long>(o.r.events.count(k));
    };
    const auto migrations = o.r.events.migrations();
    const char* migration =
        migrations.empty() ? "-"
        : migrations[0].kind == EventKind::kMigrationRollback
            ? "rolled_back"
            : "committed";
    std::printf("%-34s %5llu %5llu %5llu %4zu %5zu %8.3f %-12s %s\n",
                sc.name.c_str(), n(EventKind::kHealSpare),
                n(EventKind::kHealShrink), n(EventKind::kHealUncovered),
                o.r.faults.shed_cpis.size(), o.exact, o.max_mttr, migration,
                o.ok() ? "ok" : "FAIL");
    obs::Json r = row({{"kind", kind}, {"scenario", sc.name}});
    add_fields(r, o);
    report_row(std::move(r));
    t.worst_mttr = std::max(t.worst_mttr, o.max_mttr);
  }
  std::printf("\n%zu scenarios, %d failed, worst MTTR %.3f s\n", t.ran,
              runner.failures(), t.worst_mttr);
  return t;
}

}  // namespace ppstap::bench::chaos
