// Tests for the observability layer: JSON round-trip, histogram quantile
// accuracy, trace-span recording + Chrome export well-formedness, the
// near-zero disabled path, and the pipeline integration contract (one
// recv/comp/send triple per task per CPI per rank; PipelineResult
// percentiles consistent with the exact order statistics of
// per_cpi_latency to within one histogram bucket).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stap/sequential.hpp"
#include "synth/steering.hpp"

// Allocation counter for the zero-allocation disabled-path test. Counts
// every global operator new in the binary; tests only compare deltas
// across a region that must not allocate. GCC cannot see that the
// replacement operator new below is malloc-based and flags the free() in
// operator delete as mismatched — suppress that false positive.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ppstap::obs {
namespace {

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, RoundTripsDocument) {
  Json doc = Json::object();
  doc["name"] = "pipeline";
  doc["count"] = 42;
  doc["ratio"] = 0.25;
  doc["ok"] = true;
  doc["none"] = nullptr;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  doc["items"] = arr;

  for (int indent : {-1, 2}) {
    const auto back = Json::parse(doc.dump(indent));
    EXPECT_EQ(back.find("name")->as_string(), "pipeline");
    EXPECT_EQ(back.find("count")->as_number(), 42.0);
    EXPECT_EQ(back.find("ratio")->as_number(), 0.25);
    EXPECT_TRUE(back.find("ok")->as_bool());
    EXPECT_TRUE(back.find("none")->is_null());
    ASSERT_EQ(back.find("items")->size(), 2u);
    EXPECT_EQ(back.find("items")->at(1).as_string(), "two");
  }
}

TEST(Json, PreservesInsertionOrder) {
  Json doc = Json::object();
  doc["zeta"] = 1;
  doc["alpha"] = 2;
  const auto& obj = doc.as_object();
  EXPECT_EQ(obj[0].first, "zeta");
  EXPECT_EQ(obj[1].first, "alpha");
}

TEST(Json, EscapesStrings) {
  Json doc = Json::object();
  doc["s"] = std::string("a\"b\\c\n\t\x01");
  const auto text = doc.dump();
  EXPECT_NE(text.find("\\\""), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_EQ(Json::parse(text).find("s")->as_string(), "a\"b\\c\n\t\x01");
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(Json::parse("nul"), Error);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Histogram, QuantilesMatchKnownDistribution) {
  // Uniform 1..1000: the exact q-quantile is ~1000q; linear bounds with
  // width 10 keep the estimate within one bucket.
  std::vector<double> bounds;
  for (double b = 10.0; b <= 1000.0; b += 10.0) bounds.push_back(b);
  Histogram h(bounds);
  for (int v = 1; v <= 1000; ++v) h.observe(v);

  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  for (double q : {0.50, 0.95, 0.99}) {
    EXPECT_NEAR(h.quantile(q), 1000.0 * q, 10.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(Histogram, QuantileClampsToObservedRange) {
  Histogram h(Histogram::exponential_bounds(1e-5, 1e3));
  h.observe(0.5);
  for (double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_DOUBLE_EQ(h.quantile(q), 0.5);
}

TEST(Histogram, ExponentialBoundsAreStrictlyIncreasingAndCoverHi) {
  const auto b = Histogram::exponential_bounds(1e-5, 1e3, 1.35);
  ASSERT_GE(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b.front(), 1e-5);
  EXPECT_GE(b.back(), 1e3);
  for (size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]);
}

TEST(Histogram, RejectsInvalidBounds) {
  EXPECT_THROW(Histogram({}), Error);
  EXPECT_THROW(Histogram({1.0, 1.0}), Error);
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
}

TEST(Histogram, EmptyHistogramQuantilesAreZero) {
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.count(), 0u);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), 0.0) << "q=" << q;
}

TEST(Histogram, SingleSampleCollapsesEveryQuantile) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(42.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 42.0);
  EXPECT_DOUBLE_EQ(h.max(), 42.0);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), 42.0) << "q=" << q;
}

TEST(Histogram, AllSamplesInOverflowBucketStayInObservedRange) {
  // Every observation lands beyond the last bound: the overflow bucket has
  // no upper edge, so interpolation must fall back to the observed max and
  // the clamp must keep estimates inside [min, max].
  Histogram h({1.0, 2.0});
  for (double v : {50.0, 100.0, 200.0}) h.observe(v);
  const auto s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 3u);
  EXPECT_EQ(s.counts.back(), 3u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 200.0);
  for (double q : {0.5, 0.95, 0.99}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, 50.0) << "q=" << q;
    EXPECT_LE(v, 200.0) << "q=" << q;
  }
}

TEST(Histogram, QuantilesAreMonotonicOnSkewedData) {
  // Heavy head plus a long tail — the shape that exposed non-monotonic
  // estimators in other histogram implementations.
  Histogram h(Histogram::exponential_bounds(1e-3, 1e3, 1.5));
  for (int i = 1; i <= 500; ++i) h.observe(0.01 * i);
  for (int i = 1; i <= 20; ++i) h.observe(50.0 * i);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  double prev = h.quantile(0.0);
  for (int i = 1; i <= 20; ++i) {
    const double v = h.quantile(0.05 * i);
    EXPECT_GE(v, prev) << "q=" << 0.05 * i;
    prev = v;
  }
}

TEST(Histogram, ConcurrentObserveLosesNothing) {
  Histogram h(Histogram::exponential_bounds(1.0, 1e6, 2.0));
  constexpr int kThreads = 4, kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i) h.observe(i);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), kPerThread);
}

TEST(Registry, ReturnsStableRefsAndExportsJson) {
  Registry reg;
  auto& c = reg.counter("edge_bytes");
  c.add(7);
  EXPECT_EQ(&reg.counter("edge_bytes"), &c);
  reg.gauge("throughput").set(3.5);
  reg.histogram("lat", {1.0, 2.0}).observe(1.5);

  const auto doc = Json::parse(reg.to_json().dump());
  EXPECT_EQ(doc.find("counters")->find("edge_bytes")->as_number(), 7.0);
  EXPECT_EQ(doc.find("gauges")->find("throughput")->as_number(), 3.5);
  EXPECT_EQ(doc.find("histograms")->find("lat")->find("count")->as_number(),
            1.0);

  reg.clear();
  EXPECT_EQ(reg.counter("edge_bytes").value(), 0u);
}

// ---------------------------------------------------------------------------
// WallTimer contract (the trace time base)
// ---------------------------------------------------------------------------

TEST(WallTimerContract, SteadyAndMonotonic) {
  static_assert(WallTimer::clock::is_steady,
                "trace timestamps require a monotonic clock");
  double prev = WallTimer::now();
  for (int i = 0; i < 1000; ++i) {
    const double t = WallTimer::now();
    ASSERT_GE(t, prev);
    prev = t;
  }
}

#if PPSTAP_ENABLE_TRACING

// ---------------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset();
    Config c;
    c.enabled = true;
    configure(c);
  }
  void TearDown() override {
    Config c;
    c.enabled = false;
    configure(c);
    reset();
  }
};

TEST_F(TraceTest, RecordsAndSnapshotsInOrder) {
  emit({"comp", "pipeline", 1, 2, 0, 1.0, 2.0, -1, -1});
  emit({"recv", "pipeline", 0, 2, 0, 0.5, 1.0, 64, -1});
  emit({"comp", "pipeline", 0, 1, 0, 0.0, 0.5, -1, -1});
  const auto spans = snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Ordered by (task, rank, t_start).
  EXPECT_EQ(spans[0].task, 1);
  EXPECT_EQ(spans[1].task, 2);
  EXPECT_EQ(spans[1].rank, 0);
  EXPECT_EQ(spans[1].bytes, 64);
  EXPECT_EQ(spans[2].rank, 1);
  EXPECT_EQ(span_count(), 3u);
  EXPECT_EQ(dropped_count(), 0u);
}

TEST_F(TraceTest, RingBufferWrapCountsDrops) {
  Config c;
  c.enabled = true;
  c.capacity_per_thread = 8;
  configure(c);
  for (int i = 0; i < 20; ++i)
    emit({"comp", "pipeline", 0, 0, i, double(i), double(i) + 0.5, -1, -1});
  EXPECT_EQ(span_count(), 8u);
  EXPECT_EQ(dropped_count(), 12u);
  // The survivors are the newest spans.
  const auto spans = snapshot();
  for (const auto& s : spans) EXPECT_GE(s.cpi, 12);
}

TEST_F(TraceTest, ChromeTraceExportIsWellFormed) {
  set_track_name(0, "doppler_filter");
  emit({"recv", "pipeline", 0, 0, 3, 1.0, 1.5, 128, -1});
  emit({"comp", "pipeline", 0, 0, 3, 1.5, 2.0, -1, -1});
  emit({"xfer", "flow", 1, kFlowTrack, -1, 1.2, 1.4, 256, 4});

  const auto doc = Json::parse(chrome_trace_json().dump(2));
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  int x_events = 0, meta = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const auto& e = events->at(i);
    const auto& ph = e.find("ph")->as_string();
    if (ph == "M") {
      ++meta;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++x_events;
    EXPECT_GE(e.find("ts")->as_number(), 0.0);  // rebased to earliest span
    EXPECT_GE(e.find("dur")->as_number(), 0.0);
  }
  EXPECT_EQ(x_events, 3);
  EXPECT_GE(meta, 1);

  // The flow span keeps its byte/participant annotations.
  bool found_flow = false;
  for (size_t i = 0; i < events->size(); ++i) {
    const auto& e = events->at(i);
    if (e.find("name") && e.find("name")->as_string() == "xfer") {
      found_flow = true;
      EXPECT_EQ(e.find("args")->find("bytes")->as_number(), 256.0);
      EXPECT_EQ(e.find("args")->find("items")->as_number(), 4.0);
    }
  }
  EXPECT_TRUE(found_flow);
}

TEST_F(TraceTest, ScopedSpanEmitsOnDestruction) {
  {
    ScopedSpan span("xfer", "flow", 2, kFlowTrack);
    span.set_bytes(512);
    span.set_items(3);
  }
  const auto spans = snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "xfer");
  EXPECT_EQ(spans[0].bytes, 512);
  EXPECT_EQ(spans[0].items, 3);
  EXPECT_GE(spans[0].t_end, spans[0].t_start);
}

TEST_F(TraceTest, SequentialChainEmitsStageSpans) {
  auto p = stap::StapParams::small_test();
  synth::ScenarioParams sp;
  sp.num_range = p.num_range;
  sp.num_channels = p.num_channels;
  sp.num_pulses = p.num_pulses;
  sp.clutter.num_patches = 4;
  sp.chirp_length = 6;
  synth::ScenarioGenerator gen(sp);
  auto steering = synth::steering_matrix(p.num_channels, p.num_beams,
                                         p.beam_center_rad, p.beam_span_rad);
  stap::SequentialStap seq(p, steering, gen.replica());
  (void)seq.process(gen.generate(0));
  (void)seq.process(gen.generate(1));

  const auto spans = snapshot();
  std::map<std::string, int> stage_counts;
  for (const auto& s : spans)
    if (std::string(s.category) == "sequential") {
      EXPECT_EQ(s.task, kSeqTrack);
      ++stage_counts[s.name];
    }
  for (const char* stage : {"doppler", "reorg", "beamform",
                            "pulse_compression", "cfar", "weights"})
    EXPECT_EQ(stage_counts[stage], 2) << stage;
}

TEST(TraceDisabled, EmitIsAllocationFreeAndRecordsNothing) {
  reset();
  Config c;
  c.enabled = false;
  configure(c);
  ASSERT_FALSE(tracing_enabled());

  const Span s{"comp", "pipeline", 0, 0, 0, 1.0, 2.0, -1, -1};
  const auto before = g_allocs.load();
  for (int i = 0; i < 100000; ++i) emit(s);
  EXPECT_EQ(g_allocs.load(), before);
  EXPECT_EQ(span_count(), 0u);
}

// ---------------------------------------------------------------------------
// Pipeline integration
// ---------------------------------------------------------------------------

stap::StapParams pipeline_params() {
  auto p = stap::StapParams::small_test();
  p.num_range = 48;
  p.hard_samples_per_segment = 10;
  p.validate();
  return p;
}

TEST_F(TraceTest, PipelineEmitsOneTripleGridAndConsistentPercentiles) {
  const auto p = pipeline_params();
  synth::ScenarioParams sp;
  sp.num_range = p.num_range;
  sp.num_channels = p.num_channels;
  sp.num_pulses = p.num_pulses;
  sp.clutter.num_patches = 6;
  sp.chirp_length = 6;
  synth::ScenarioGenerator gen(sp);
  auto steering = synth::steering_matrix(p.num_channels, p.num_beams,
                                         p.beam_center_rad, p.beam_span_rad);

  core::NodeAssignment a{{2, 1, 2, 1, 1, 1, 1}};  // 9 ranks
  core::ParallelStapPipeline pipe(p, a, steering,
                                  {gen.replica().begin(),
                                   gen.replica().end()});
  const index_t n_cpis = 6;
  const auto result = pipe.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  // One {recv, comp, send} triple per rank per CPI.
  std::map<std::tuple<int, std::int64_t, std::string>, int> grid;
  for (const auto& s : snapshot()) {
    if (std::string(s.category) != "pipeline") continue;
    EXPECT_GE(s.t_end, s.t_start);
    ++grid[{s.rank, s.cpi, s.name}];
  }
  for (int rank = 0; rank < a.total(); ++rank)
    for (index_t cpi = 0; cpi < n_cpis; ++cpi)
      for (const char* phase : {"recv", "comp", "send"}) {
        EXPECT_EQ((grid[{rank, cpi, phase}]), 1)
            << "rank " << rank << " cpi " << cpi << " " << phase;
      }

  // recv <= comp <= send start ordering within each (rank, cpi).
  std::map<std::pair<int, std::int64_t>, std::array<double, 3>> starts;
  for (const auto& s : snapshot()) {
    if (std::string(s.category) != "pipeline") continue;
    const int phase = std::string(s.name) == "recv"  ? 0
                      : std::string(s.name) == "comp" ? 1
                                                      : 2;
    starts[{s.rank, s.cpi}][static_cast<size_t>(phase)] = s.t_start;
  }
  for (const auto& [key, t] : starts) {
    EXPECT_LE(t[0], t[1]);
    EXPECT_LE(t[1], t[2]);
  }

  // Percentiles agree with the exact order statistics of per_cpi_latency
  // to within one histogram bucket.
  auto sorted = result.per_cpi_latency;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted.size(), static_cast<size_t>(n_cpis - 2));
  obs::Histogram ref(std::vector<double>(result.latency_histogram.bounds));
  const auto exact = [&](double q) {
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(std::ceil(q * sorted.size())) == 0
            ? 0
            : static_cast<size_t>(std::ceil(q * sorted.size())) - 1);
    return sorted[idx];
  };
  const std::pair<double, double> checks[] = {
      {0.50, result.latency_percentiles.p50},
      {0.95, result.latency_percentiles.p95},
      {0.99, result.latency_percentiles.p99},
  };
  for (const auto& [q, estimated] : checks) {
    const auto diff =
        std::llabs(static_cast<long long>(ref.bucket_index(estimated)) -
                   static_cast<long long>(ref.bucket_index(exact(q))));
    EXPECT_LE(diff, 1) << "q=" << q;
  }

  // The histogram saw exactly the measured CPIs.
  EXPECT_EQ(result.latency_histogram.count, sorted.size());

  // Byte accounting: every Fig. 4 edge that exists in a 7-task pipeline
  // moved data on the measured CPIs.
  double edge_total = 0.0;
  for (double b : result.bytes_per_edge_per_cpi) {
    EXPECT_GE(b, 0.0);
    edge_total += b;
  }
  EXPECT_GT(edge_total, 0.0);
}

#endif  // PPSTAP_ENABLE_TRACING

}  // namespace
}  // namespace ppstap::obs
