// Tests for the parallel pipelined STAP system: node assignment rules, the
// CPI source, and — centrally — that the parallel pipeline produces the
// same detections as the sequential reference for arbitrary processor
// assignments (the paper's correctness premise: parallelization changes
// performance, never results).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "comm/fault.hpp"
#include "core/assignment.hpp"
#include "core/cpi_source.hpp"
#include "core/pipeline.hpp"
#include "core/sim.hpp"
#include "core/tags.hpp"
#include "obs/trace.hpp"
#include "stap/sequential.hpp"
#include "synth/steering.hpp"

namespace ppstap::core {
namespace {

using stap::StapParams;
using stap::Task;
using synth::ScenarioGenerator;
using synth::ScenarioParams;
using synth::Target;

TEST(Assignment, PaperCasesHavePaperTotals) {
  EXPECT_EQ(NodeAssignment::paper_case1().total(), 236);
  EXPECT_EQ(NodeAssignment::paper_case2().total(), 118);
  EXPECT_EQ(NodeAssignment::paper_case3().total(), 59);
  EXPECT_EQ(NodeAssignment::paper_table9().total(), 122);
  EXPECT_EQ(NodeAssignment::paper_table10().total(), 138);
}

TEST(Assignment, PaperCasesValidateAgainstPaperParams) {
  StapParams p;  // defaults = paper configuration
  NodeAssignment::paper_case1().validate(p);
  NodeAssignment::paper_case2().validate(p);
  NodeAssignment::paper_case3().validate(p);
  NodeAssignment::paper_table9().validate(p);
  NodeAssignment::paper_table10().validate(p);
}

TEST(Assignment, FirstRankLayoutIsContiguous) {
  auto a = NodeAssignment::paper_case3();  // {8,4,28,4,7,4,4}
  EXPECT_EQ(a.first_rank(Task::kDopplerFilter), 0);
  EXPECT_EQ(a.first_rank(Task::kEasyWeight), 8);
  EXPECT_EQ(a.first_rank(Task::kHardWeight), 12);
  EXPECT_EQ(a.first_rank(Task::kEasyBeamform), 40);
  EXPECT_EQ(a.first_rank(Task::kHardBeamform), 44);
  EXPECT_EQ(a.first_rank(Task::kPulseCompression), 51);
  EXPECT_EQ(a.first_rank(Task::kCfar), 55);
}

TEST(Assignment, RejectsOversubscription) {
  StapParams p = StapParams::small_test();
  NodeAssignment a;
  a[Task::kDopplerFilter] = static_cast<int>(p.num_range) + 1;
  EXPECT_THROW(a.validate(p), Error);
  NodeAssignment b;
  b[Task::kEasyWeight] = static_cast<int>(p.num_easy()) + 1;
  EXPECT_THROW(b.validate(p), Error);
  NodeAssignment c;
  c[Task::kHardWeight] =
      static_cast<int>(p.num_hard * p.num_segments);  // exactly at limit: ok
  c.validate(p);
  c[Task::kHardWeight] += 1;
  EXPECT_THROW(c.validate(p), Error);
}

TEST(Assignment, RejectsZeroNodes) {
  StapParams p = StapParams::small_test();
  NodeAssignment a;
  a[Task::kCfar] = 0;
  EXPECT_THROW(a.validate(p), Error);
}

TEST(CpiSource, SharesGeneratedCubes) {
  ScenarioParams sp;
  sp.num_range = 16;
  sp.num_channels = 2;
  sp.num_pulses = 8;
  sp.clutter.num_patches = 2;
  sp.chirp_length = 0;
  ScenarioGenerator gen(sp);
  CpiSource source(gen);
  auto a = source.get(0);
  auto b = source.get(0);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(source.regeneration_count(), 0);
}

TEST(CpiSource, RegeneratesEvictedCpisCorrectly) {
  ScenarioParams sp;
  sp.num_range = 16;
  sp.num_channels = 2;
  sp.num_pulses = 8;
  sp.clutter.num_patches = 2;
  sp.chirp_length = 0;
  ScenarioGenerator gen(sp);
  CpiSource source(gen, /*window=*/1);
  auto first = source.get(0);
  (void)source.get(5);  // evicts 0
  auto again = source.get(0);
  EXPECT_EQ(source.regeneration_count(), 1);
  for (index_t i = 0; i < first->size(); ++i)
    EXPECT_EQ(first->data()[i], again->data()[i]);
}

TEST(CpiSource, ConcurrentConsumersShareOneGeneration) {
  ScenarioParams sp;
  sp.num_range = 24;
  sp.num_channels = 2;
  sp.num_pulses = 8;
  sp.clutter.num_patches = 2;
  sp.chirp_length = 0;
  ScenarioGenerator gen(sp);
  CpiSource source(gen, /*window=*/8);
  // Many threads demanding overlapping CPI windows: every cube identical
  // per index, no regeneration while within the window.
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (index_t cpi = 0; cpi < 6; ++cpi) {
        auto a = source.get(cpi);
        auto b = source.get(cpi);
        if (a.get() != b.get()) mismatches.fetch_add(1);
        (void)t;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(source.regeneration_count(), 0);
}

TEST(CpiSource, StragglerWithinBoundIsTolerated) {
  ScenarioParams sp;
  sp.num_range = 16;
  sp.num_channels = 2;
  sp.num_pulses = 8;
  sp.clutter.num_patches = 2;
  sp.chirp_length = 0;
  ScenarioGenerator gen(sp);
  // A straggler alternating with a fast consumer regenerates its evicted
  // cube every time but stays under the bound.
  CpiSource source(gen, /*window=*/1, /*max_regenerations=*/8);
  (void)source.get(0);
  for (index_t i = 0; i < 4; ++i) {
    (void)source.get(6 + i);  // fast consumer far ahead, evicts 0
    (void)source.get(0);      // straggler regenerates
  }
  EXPECT_EQ(source.regeneration_count(), 4);
}

TEST(CpiSource, RegenerationStormThrows) {
  ScenarioParams sp;
  sp.num_range = 16;
  sp.num_channels = 2;
  sp.num_pulses = 8;
  sp.clutter.num_patches = 2;
  sp.chirp_length = 0;
  ScenarioGenerator gen(sp);
  CpiSource source(gen, /*window=*/1, /*max_regenerations=*/3);
  EXPECT_THROW(
      {
        for (index_t i = 0; i < 10; ++i) {
          (void)source.get(6 + i);
          (void)source.get(0);
        }
      },
      Error);
  // The bound fired after exactly max_regenerations + 1 regenerations.
  EXPECT_EQ(source.regeneration_count(), 4);
}

// ---------------------------------------------------------------------------
// The front-end producer
// ---------------------------------------------------------------------------

ScenarioParams tiny_scene() {
  ScenarioParams sp;
  sp.num_range = 16;
  sp.num_channels = 2;
  sp.num_pulses = 8;
  sp.clutter.num_patches = 2;
  sp.chirp_length = 0;
  return sp;
}

// A generator that records which CPIs it was asked for.
struct RecordingGenerator {
  explicit RecordingGenerator(const ScenarioGenerator& g) : gen(g) {}
  const ScenarioGenerator& gen;
  std::mutex mu;
  std::vector<index_t> calls;

  CpiSource::Generator fn() {
    return [this](index_t cpi, cube::CpiCube& out) {
      {
        std::lock_guard<std::mutex> lock(mu);
        calls.push_back(cpi);
      }
      gen.generate(cpi, out);
    };
  }
  std::vector<index_t> snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return calls;
  }
};

// Poll `pred` (the producer runs on its own thread) with a generous bound.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 20000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return pred();
}

TEST(CpiSource, ProducerStaysOneCpiAheadOfTheFastestConsumer) {
  ScenarioGenerator gen(tiny_scene());
  RecordingGenerator rec(gen);
  CpiSource source(rec.fn());
  const index_t n = 6;
  source.start(n);
  // Before any consumer: the producer prepares CPI 0 and stops there.
  ASSERT_TRUE(eventually([&] { return source.produced() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(source.produced(), 1);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_TRUE(source.admit(i).admit);
    const auto cube = source.get(i);
    const auto ref = gen.generate(i);
    ASSERT_EQ(std::memcmp(cube->data(), ref.data(),
                          static_cast<size_t>(ref.size()) * sizeof(cfloat)),
              0)
        << "cpi " << i;
    // Consumer at i: the producer may finish i + 1, never i + 2.
    const index_t ahead = std::min(i + 2, n);
    ASSERT_TRUE(eventually([&] { return source.produced() == ahead; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(source.produced(), ahead) << "consumer at " << i;
  }
  source.stop();
  // Every CPI generated exactly once, by the producer, in order.
  std::vector<index_t> want(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) want[static_cast<size_t>(i)] = i;
  EXPECT_EQ(rec.snapshot(), want);
  EXPECT_EQ(source.regeneration_count(), 0);
}

TEST(CpiSource, CpiRejectedAtAdmissionIsNeverGenerated) {
  ScenarioGenerator gen(tiny_scene());
  RecordingGenerator rec(gen);
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.ladder = false;
  cfg.queue_low = cfg.queue_high = 1;  // one CPI in flight; reject beyond
  EventLog log;
  OverloadController ctrl(cfg, 4, log);
  CpiSource source(rec.fn());
  source.set_overload_controller(&ctrl);
  source.start(4);
  ASSERT_TRUE(source.admit(0).admit);
  (void)source.get(0);
  // CPI 0 is still in flight, so the producer's admission of CPI 1 is
  // rejected and the producer passes over it.
  ASSERT_TRUE(eventually([&] { return source.produced() >= 2; }));
  // Complete CPI 0 before admit(1) lets the producer on to CPI 2, so CPI 2
  // finds room; the rejection of CPI 1 is already memoized.
  ctrl.on_complete(0, 1e-3, false);
  EXPECT_FALSE(source.admit(1).admit);
  ASSERT_TRUE(source.admit(2).admit);
  (void)source.get(2);
  source.stop();
  // The producer may have gone on to reject CPI 3 as well (CPI 2 is in
  // flight); whatever it rejected, it never generated.
  const auto calls = rec.snapshot();
  const auto rejected = summarize(log.snapshot()).overload.rejected_cpis;
  ASSERT_FALSE(rejected.empty());
  EXPECT_EQ(rejected.front(), 1);
  for (const index_t cpi : rejected)
    EXPECT_EQ(std::count(calls.begin(), calls.end(), cpi), 0) << "cpi " << cpi;
  EXPECT_EQ(std::count(calls.begin(), calls.end(), index_t{2}), 1);
}

TEST(CpiSource, ProducerFailureSurfacesAtGet) {
  ScenarioGenerator gen(tiny_scene());
  CpiSource source([&gen](index_t cpi, cube::CpiCube& out) {
    if (cpi == 1) throw Error("front end failed on CPI 1");
    gen.generate(cpi, out);
  });
  source.start(4);
  ASSERT_TRUE(source.admit(0).admit);
  EXPECT_NE(source.get(0), nullptr);
  ASSERT_TRUE(source.admit(1).admit);
  EXPECT_THROW((void)source.get(1), Error);
  EXPECT_THROW((void)source.get(2), Error);  // nothing is produced past it
  source.stop();
}

TEST(CpiSource, StopWakesAProducerParkedInTheThrottle) {
  ScenarioGenerator gen(tiny_scene());
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.ladder = false;
  cfg.reject_when_full = false;  // throttle
  cfg.queue_low = cfg.queue_high = 1;
  EventLog log;
  OverloadController ctrl(cfg, 8, log);
  CpiSource source(gen);
  source.set_overload_controller(&ctrl);
  source.start(8);
  ASSERT_TRUE(source.admit(0).admit);
  (void)source.get(0);
  // CPI 0 never completes: the producer blocks admitting CPI 1.
  ASSERT_TRUE(eventually(
      [&] { return log.snapshot().count(EventKind::kThrottle) == 1; }));
  source.stop();  // must return
  EXPECT_EQ(source.produced(), 1);
  // The closed controller refuses undecided CPIs without recording them.
  EXPECT_FALSE(ctrl.admit(1).admit);
  EXPECT_TRUE(summarize(log.snapshot()).overload.rejected_cpis.empty());
}

// ---------------------------------------------------------------------------
// Parallel pipeline == sequential reference
// ---------------------------------------------------------------------------

struct Fixture {
  StapParams p;
  ScenarioParams sp;

  static Fixture make() {
    Fixture f;
    f.p = StapParams::small_test();
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
    f.sp.targets.push_back(Target{21, 8.0 / 16.0, 0.05, 15.0});
    return f;
  }

  linalg::MatrixCF steering() const {
    return synth::steering_matrix(p.num_channels, p.num_beams,
                                  p.beam_center_rad, p.beam_span_rad);
  }
};

// Run both implementations on the same stream and compare detections.
void expect_matches_sequential(const Fixture& f, const NodeAssignment& a,
                               index_t n_cpis) {
  ScenarioGenerator gen(f.sp);

  stap::SequentialStap seq(f.p, f.steering(), gen.replica());
  std::vector<std::vector<stap::Detection>> ref;
  for (index_t cpi = 0; cpi < n_cpis; ++cpi)
    ref.push_back(seq.process(gen.generate(cpi)).detections);

  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  auto result = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  ASSERT_EQ(result.detections.size(), static_cast<size_t>(n_cpis));
  for (index_t cpi = 0; cpi < n_cpis; ++cpi) {
    auto sorted_ref = ref[static_cast<size_t>(cpi)];
    std::sort(sorted_ref.begin(), sorted_ref.end(),
              [](const auto& x, const auto& y) {
                return std::tie(x.doppler_bin, x.beam, x.range) <
                       std::tie(y.doppler_bin, y.beam, y.range);
              });
    const auto& got = result.detections[static_cast<size_t>(cpi)];
    ASSERT_EQ(got.size(), sorted_ref.size()) << "cpi=" << cpi;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].doppler_bin, sorted_ref[i].doppler_bin);
      EXPECT_EQ(got[i].beam, sorted_ref[i].beam);
      EXPECT_EQ(got[i].range, sorted_ref[i].range);
      EXPECT_NEAR(got[i].power, sorted_ref[i].power,
                  2e-2f * std::abs(sorted_ref[i].power) + 1e-5f);
    }
  }
}

TEST(ParallelPipeline, SingleNodePerTaskMatchesSequential) {
  auto f = Fixture::make();
  NodeAssignment a;  // all ones
  expect_matches_sequential(f, a, 4);
}

TEST(ParallelPipeline, BalancedAssignmentMatchesSequential) {
  auto f = Fixture::make();
  NodeAssignment a{{4, 2, 4, 2, 2, 2, 2}};
  expect_matches_sequential(f, a, 5);
}

TEST(ParallelPipeline, UnevenAssignmentMatchesSequential) {
  auto f = Fixture::make();
  // Deliberately awkward: partitions that do not divide the work evenly and
  // more weight nodes than beamform nodes.
  NodeAssignment a{{3, 5, 7, 2, 3, 5, 3}};
  expect_matches_sequential(f, a, 4);
}

TEST(ParallelPipeline, MaximallyParallelWeightTask) {
  auto f = Fixture::make();
  // Hard weights at one unit per node (num_hard * segments = 12).
  NodeAssignment a{{2, 2, 12, 2, 6, 2, 2}};
  expect_matches_sequential(f, a, 4);
}

TEST(ParallelPipeline, ReportsTimingAndThroughput) {
  auto f = Fixture::make();
  NodeAssignment a{{2, 1, 2, 1, 1, 1, 1}};
  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  auto result = par.run(gen, 6, 2, 2);
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_GT(result.latency, 0.0);
  for (int t = 0; t < stap::kNumTasks; ++t) {
    const auto& tt = result.timing[static_cast<size_t>(t)];
    EXPECT_GE(tt.recv, 0.0);
    EXPECT_GE(tt.comp, 0.0);
    EXPECT_GE(tt.send, 0.0);
  }
  // Compute must be nonzero for the compute-heavy tasks.
  EXPECT_GT(result.timing[static_cast<size_t>(Task::kDopplerFilter)].comp,
            0.0);
  EXPECT_GT(result.timing[static_cast<size_t>(Task::kHardWeight)].comp, 0.0);
  // Sanity on measured inter-task volume: Doppler sends the most data.
  // A task's volume is the sum over its out-edges.
  std::array<double, stap::kNumTasks> sent{};
  for (int e = 0; e < kNumPipelineEdges; ++e)
    sent[static_cast<size_t>(edge_src(static_cast<Edge>(e)))] +=
        result.bytes_per_edge_per_cpi[static_cast<size_t>(e)];
  EXPECT_GT(sent[static_cast<size_t>(Task::kDopplerFilter)],
            sent[static_cast<size_t>(Task::kEasyWeight)]);
}

// A run is configured only through its setters: robustness knobs left in
// the environment are not read, so every config keeps its default.
TEST(ParallelPipeline, EnvironmentDoesNotConfigureARun) {
  auto f = Fixture::make();
  const std::pair<const char*, const char*> knobs[] = {
      {"PPSTAP_SPARES", "2"}, {"PPSTAP_ABFT", "1"}, {"PPSTAP_OVERLOAD", "1"}};
  for (const auto& [name, value] : knobs) setenv(name, value, 1);
  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, NodeAssignment{{1, 1, 1, 1, 1, 1, 1}},
                           f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  for (const auto& [name, value] : knobs) unsetenv(name);
  EXPECT_EQ(par.fault_tolerance().spares, 0);
  EXPECT_FALSE(par.integrity().enabled);
  EXPECT_FALSE(par.overload().enabled);
}

// Latency starts at the admission decision, shared by every Doppler rank:
// with two of them, whichever rank (or the front end) admitted the CPI, no
// rank's receive phase can start before the latency origin. The front
// end's trace span starts at that admission stamp.
TEST(ParallelPipeline, LatencyStartsAtTheAdmissionStamp) {
  auto f = Fixture::make();
  NodeAssignment a{{2, 1, 1, 1, 1, 1, 1}};
  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  OverloadConfig ov;
  ov.enabled = true;
  ov.ladder = false;
  ov.arrival_period_seconds = 2e-3;  // paced: the admission wait is real
  par.set_overload(ov);
  obs::reset();
  obs::Config on;
  on.enabled = true;
  obs::configure(on);
  if (!obs::tracing_enabled())
    GTEST_SKIP() << "built with PPSTAP_ENABLE_TRACING=OFF";
  const index_t n = 12;
  auto r = par.run(gen, n, 1, 1);
  const auto spans = obs::snapshot();
  obs::configure(obs::Config{});
  obs::reset();

  std::map<std::int64_t, double> first_recv;
  std::map<std::int64_t, double> front;
  for (const auto& sp : spans) {
    if (std::strcmp(sp.name, "recv") == 0 &&
        sp.task == static_cast<int>(Task::kDopplerFilter)) {
      auto [it, fresh] = first_recv.try_emplace(sp.cpi, sp.t_start);
      if (!fresh) it->second = std::min(it->second, sp.t_start);
    }
    if (std::strcmp(sp.name, "generate") == 0) front[sp.cpi] = sp.t_start;
  }
  ASSERT_EQ(r.per_cpi_index.size(), r.per_cpi_latency.size());
  ASSERT_FALSE(r.per_cpi_index.empty());
  for (size_t i = 0; i < r.per_cpi_index.size(); ++i) {
    const auto cpi = r.per_cpi_index[i];
    const double done = r.completion_times[static_cast<size_t>(cpi)];
    ASSERT_TRUE(front.count(cpi) && first_recv.count(cpi)) << "cpi " << cpi;
    EXPECT_DOUBLE_EQ(r.per_cpi_latency[i], done - front[cpi]);
    // Every Doppler rank received the CPI after its admission, so no
    // rank's clock can push the origin later.
    EXPECT_GE(r.per_cpi_latency[i], done - first_recv[cpi]) << "cpi " << cpi;
  }
}

// The Doppler rank dies with no spare while the front end is throttled at
// one CPI in flight: the CPIs it never sent are shed, everything before
// them is exact, and run() returns — the producer, left waiting for a
// consumer that will never come, is stopped with the stream.
TEST(ParallelPipeline, ReturnsWhenTheDopplerRankDiesWithNoSpare) {
  auto f = Fixture::make();
  NodeAssignment a;
  const index_t n = 10, kill_cpi = 5;
  ScenarioGenerator gen(f.sp);
  stap::SequentialStap seq(f.p, f.steering(), gen.replica());
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  OverloadConfig ov;
  ov.enabled = true;
  ov.ladder = false;
  ov.reject_when_full = false;
  ov.queue_low = ov.queue_high = 1;
  par.set_overload(ov);
  comm::FaultPlan plan;
  // Doppler's first send of a CPI is its easy-beamforming frame.
  plan.add(comm::FaultPlan::kill_on_send(a.first_rank(Task::kDopplerFilter),
                                         tag_for(kill_cpi, kDopToEasyBf)));
  par.set_fault_plan(&plan);
  auto r = par.run(gen, n, 1, 1);

  EXPECT_EQ(r.events.count(EventKind::kKill), 1u);
  EXPECT_GT(r.events.count(EventKind::kThrottle), 0u);
  std::vector<index_t> want_shed;
  for (index_t cpi = kill_cpi; cpi < n; ++cpi) want_shed.push_back(cpi);
  EXPECT_EQ(r.faults.shed_cpis, want_shed);
  for (index_t cpi = 0; cpi < kill_cpi; ++cpi) {
    auto ref = seq.process(gen.generate(cpi)).detections;
    const auto& got = r.detections[static_cast<size_t>(cpi)];
    ASSERT_EQ(got.size(), ref.size()) << "cpi " << cpi;
  }
}

TEST(ParallelPipeline, RejectsMismatchedScenario) {
  auto f = Fixture::make();
  NodeAssignment a;
  ScenarioParams other = f.sp;
  other.num_range = f.sp.num_range * 2;
  ScenarioGenerator gen(other);
  ParallelStapPipeline par(f.p, a, f.steering(), {});
  EXPECT_THROW(par.run(gen, 4), Error);
}

TEST(ParallelPipeline, RejectsTooFewCpis) {
  auto f = Fixture::make();
  NodeAssignment a;
  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(), {});
  EXPECT_THROW(par.run(gen, 4, /*warmup=*/3, /*cooldown=*/2), Error);
}

}  // namespace
}  // namespace ppstap::core
