// Tests for the critical-path analyzer (DESIGN.md section 10): gating-task
// attribution and slack math on hand-built span sets, temporal-edge
// exclusion, Chrome-trace round-tripping, flow-span emission in the comm
// runtime, flight-recorder dumps on world abort, and the headline
// validation — the analyzer recovering the paper's Table 9/10 verdicts
// from simulator traces alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "comm/world.hpp"
#include "core/assignment.hpp"
#include "core/machine.hpp"
#include "core/sim.hpp"
#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "stap/params.hpp"
#include "synth/steering.hpp"

namespace ppstap::obs {
namespace {

// ---------------------------------------------------------------------------
// Synthetic spans: a 3-stage pipeline with a known bottleneck. Per CPI i
// (base T = i seconds), stage 1 is gating: intrinsic times are 0.30 /
// 0.58 / 0.30 s and every chain tile is constructed to telescope exactly
// over [T, T + 1.40].
// ---------------------------------------------------------------------------

Span phase(const char* name, int rank, int task, std::int64_t cpi, double t0,
           double t1) {
  return {name, "pipeline", rank, task, cpi, t0, t1, -1, -1};
}

Span flow(int dst_rank, int src_rank, int src_task, int edge,
          std::int64_t cpi, double t0, double t1, double queue_s) {
  Span s;
  s.name = "xfer";
  s.category = "flow";
  s.rank = dst_rank;
  s.task = kFlowTrack;
  s.cpi = cpi;
  s.t_start = t0;
  s.t_end = t1;
  s.bytes = 1024;
  s.src_rank = src_rank;
  s.src_task = src_task;
  s.edge = edge;
  s.hop = 1;
  s.queue_s = queue_s;
  return s;
}

std::vector<Span> synthetic_pipeline(int num_cpis) {
  std::vector<Span> spans;
  for (int i = 0; i < num_cpis; ++i) {
    const double T = static_cast<double>(i);
    const auto cpi = static_cast<std::int64_t>(i);
    // Stage 0 (source, rank 0): 0.05 ingest + 0.20 comp + 0.05 pack.
    spans.push_back(phase("recv", 0, 0, cpi, T + 0.00, T + 0.05));
    spans.push_back(phase("comp", 0, 0, cpi, T + 0.05, T + 0.25));
    spans.push_back(phase("send", 0, 0, cpi, T + 0.25, T + 0.30));
    // Edge 0 -> 1: departs T+0.30, 0.02 s queued, lands T+0.42.
    spans.push_back(flow(1, 0, 0, /*edge=*/0, cpi, T + 0.30, T + 0.42, 0.02));
    // Stage 1 (rank 1, gating): recv blocks from T+0.10, last delivery
    // T+0.42, unpack to T+0.45; comp 0.50; send 0.05. Intrinsic:
    // 0.90 - wait 0.32 = 0.58.
    spans.push_back(phase("recv", 1, 1, cpi, T + 0.10, T + 0.45));
    spans.push_back(phase("comp", 1, 1, cpi, T + 0.45, T + 0.95));
    spans.push_back(phase("send", 1, 1, cpi, T + 0.95, T + 1.00));
    // Edge 1 -> 2: no queueing, 0.10 transport.
    spans.push_back(flow(2, 1, 1, /*edge=*/1, cpi, T + 1.00, T + 1.10, 0.0));
    // Stage 2 (sink, rank 2): intrinsic 0.80 - wait 0.50 = 0.30.
    spans.push_back(phase("recv", 2, 2, cpi, T + 0.60, T + 1.15));
    spans.push_back(phase("comp", 2, 2, cpi, T + 1.15, T + 1.35));
    spans.push_back(phase("send", 2, 2, cpi, T + 1.35, T + 1.40));
  }
  return spans;
}

TEST(CriticalPath, FindsGatingStageAndSlack) {
  const auto rep = analyze_spans(synthetic_pipeline(3));
  ASSERT_TRUE(rep.valid) << rep.note;
  EXPECT_EQ(rep.gating_task, 1);
  EXPECT_NEAR(rep.period, 0.58, 1e-9);
  EXPECT_NEAR(rep.throughput_estimate, 1.0 / 0.58, 1e-9);

  ASSERT_EQ(rep.stages.size(), 3u);
  for (const auto& st : rep.stages) {
    switch (st.task) {
      case 0:
        EXPECT_NEAR(st.intrinsic(), 0.30, 1e-9);
        EXPECT_NEAR(st.slack, 0.28, 1e-9);
        EXPECT_NEAR(st.utilization, 0.30 / 0.58, 1e-9);
        EXPECT_NEAR(st.wait, 0.0, 1e-9);  // source has no inputs
        break;
      case 1:
        EXPECT_NEAR(st.service(), 0.90, 1e-9);
        EXPECT_NEAR(st.wait, 0.32, 1e-9);
        EXPECT_NEAR(st.intrinsic(), 0.58, 1e-9);
        EXPECT_NEAR(st.slack, 0.0, 1e-9);
        EXPECT_NEAR(st.utilization, 1.0, 1e-9);
        break;
      case 2:
        EXPECT_NEAR(st.wait, 0.50, 1e-9);
        EXPECT_NEAR(st.intrinsic(), 0.30, 1e-9);
        break;
      default:
        FAIL() << "unexpected task " << st.task;
    }
  }
}

TEST(CriticalPath, RecommendsRanksForGatingStage) {
  const auto rep = analyze_spans(synthetic_pipeline(3));
  ASSERT_TRUE(rep.valid);
  // Runner-up intrinsic is 0.30: one extra rank brings 0.58 under it
  // (ceil(1 * (0.58/0.30 - 1)) = 1) and the predicted ceiling is 1/0.30.
  EXPECT_EQ(rep.recommend_task, 1);
  EXPECT_EQ(rep.recommend_add_ranks, 1);
  EXPECT_NEAR(rep.predicted_throughput, 1.0 / 0.30, 1e-9);
}

TEST(CriticalPath, ChainsTelescopeWithNoGaps) {
  const auto rep = analyze_spans(synthetic_pipeline(3));
  ASSERT_TRUE(rep.valid);
  ASSERT_EQ(rep.chains.size(), 3u);
  for (const auto& ch : rep.chains) {
    EXPECT_EQ(ch.hops, 2);
    EXPECT_NEAR(ch.latency, 1.40, 1e-9);
    EXPECT_NEAR(ch.compute, 0.90, 1e-9);
    EXPECT_NEAR(ch.unpack, 0.13, 1e-9);
    EXPECT_NEAR(ch.pack, 0.15, 1e-9);
    EXPECT_NEAR(ch.transport, 0.20, 1e-9);
    EXPECT_NEAR(ch.queue, 0.02, 1e-9);
    EXPECT_NEAR(ch.accounted(), ch.latency, 1e-9);
  }
  EXPECT_NEAR(rep.accounted_fraction, 1.0, 1e-9);
  EXPECT_NEAR(rep.mean_latency, 1.40, 1e-9);
}

Span front_end(std::int64_t cpi, double t0, double t1) {
  return {"generate", "source", -1, kSourceTrack, cpi, t0, t1, -1, -1};
}

// With a radar front end, a CPI enters the system at its admission: the
// chain starts at the front-end span. Generation counts as compute, a cube
// published before the source rank picks it up waits as queue, and a rank
// already waiting on the front end overlaps it (only the recv work after
// publication is ingest). The stage verdict is unchanged.
TEST(CriticalPath, ChainsStartAtTheFrontEndSpan) {
  auto spans = synthetic_pipeline(2);
  // CPI 0: published at T-0.05, picked up at the source recv start T.
  spans.push_back(front_end(0, -0.20, -0.05));
  // CPI 1: published at T+0.03, inside the source's recv [T, T+0.05).
  spans.push_back(front_end(1, 0.90, 1.03));
  const auto rep = analyze_spans(spans);
  ASSERT_TRUE(rep.valid) << rep.note;
  EXPECT_EQ(rep.gating_task, 1);
  EXPECT_NEAR(rep.period, 0.58, 1e-9);
  ASSERT_EQ(rep.chains.size(), 2u);
  const auto& c0 = rep.chains[0];
  EXPECT_NEAR(c0.latency, 1.60, 1e-9);
  EXPECT_NEAR(c0.compute, 0.90 + 0.15, 1e-9);
  EXPECT_NEAR(c0.queue, 0.02 + 0.05, 1e-9);
  EXPECT_NEAR(c0.unpack, 0.13, 1e-9);
  const auto& c1 = rep.chains[1];
  EXPECT_NEAR(c1.latency, 1.50, 1e-9);
  EXPECT_NEAR(c1.compute, 0.90 + 0.13, 1e-9);
  EXPECT_NEAR(c1.queue, 0.02, 1e-9);
  EXPECT_NEAR(c1.unpack, 0.13 - 0.03, 1e-9);
  for (const auto& ch : rep.chains)
    EXPECT_NEAR(ch.accounted(), ch.latency, 1e-9);
  EXPECT_NEAR(rep.accounted_fraction, 1.0, 1e-9);
}

// A streamed front end: the source rank filters the first rows of each
// cube while the rest are generated, so its comp phase [T+0.05, T+0.25)
// starts 0.10 s before the generate span [T-0.10, T+0.15) ends. The chain
// counts that stretch once, as compute, and reports it as overlap; the
// tiles still close the latency. The source's receive is all waiting on
// the front end, so none of it is intrinsic.
TEST(CriticalPath, StreamedSourceOverlapsTheFrontEndOnce) {
  auto spans = synthetic_pipeline(2);
  spans.push_back(front_end(0, -0.10, 0.15));
  spans.push_back(front_end(1, 0.90, 1.15));
  const auto rep = analyze_spans(spans);
  ASSERT_TRUE(rep.valid) << rep.note;
  EXPECT_EQ(rep.gating_task, 1);
  ASSERT_EQ(rep.chains.size(), 2u);
  for (const auto& ch : rep.chains) {
    EXPECT_NEAR(ch.latency, 1.50, 1e-9);
    // Front end up to the filter's start (0.15), then every comp phase.
    EXPECT_NEAR(ch.compute, 0.15 + 0.90, 1e-9);
    EXPECT_NEAR(ch.overlap, 0.10, 1e-9);
    EXPECT_NEAR(ch.unpack, 0.13 - 0.05, 1e-9);
    EXPECT_NEAR(ch.queue, 0.02, 1e-9);
    EXPECT_NEAR(ch.accounted(), ch.latency, 1e-9);
  }
  EXPECT_NEAR(rep.accounted_fraction, 1.0, 1e-9);
  for (const auto& st : rep.stages)
    if (st.task == 0) {
      EXPECT_NEAR(st.wait, 0.05, 1e-9);
      EXPECT_NEAR(st.intrinsic(), 0.25, 1e-9);
    }
  const Json doc = rep.to_json();
  const Json* b = doc.find("latency_breakdown");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->find("overlap_s"), nullptr);
  EXPECT_NEAR(b->find("overlap_s")->as_number(), 0.10, 1e-9);
}

TEST(CriticalPath, TemporalEdgesBoundWaitButStayOffTheChain) {
  // A temporal delivery (edge 4: weights trained on an earlier CPI) lands
  // at T+0.80, after the spatial input at T+0.42. It extends stage 1's
  // queue-wait bound but the chain walk must keep following the spatial
  // edge — eq. (2) excludes the weight tasks from the latency path.
  auto spans = synthetic_pipeline(3);
  for (int i = 0; i < 3; ++i) {
    const double T = static_cast<double>(i);
    spans.push_back(
        flow(1, 7, 7, /*edge=*/4, i, T + 0.20, T + 0.80, 0.0));
  }
  const auto rep = analyze_spans(spans);
  ASSERT_TRUE(rep.valid);
  // Wait bound now reaches the temporal delivery: clamp(0.80-0.10) = 0.35
  // (full recv), intrinsic 0.90 - 0.35 = 0.55; stage 1 still gates.
  EXPECT_EQ(rep.gating_task, 1);
  EXPECT_NEAR(rep.period, 0.55, 1e-9);
  // Chains are unchanged: same two spatial hops, same closed decomposition.
  ASSERT_EQ(rep.chains.size(), 3u);
  for (const auto& ch : rep.chains) {
    EXPECT_EQ(ch.hops, 2);
    EXPECT_NEAR(ch.accounted(), ch.latency, 1e-9);
  }
}

TEST(CriticalPath, TrimsFillAndDrainTransients) {
  // 12 complete CPIs -> the analyzer drops 2 from each end.
  const auto rep = analyze_spans(synthetic_pipeline(12));
  ASSERT_TRUE(rep.valid);
  EXPECT_EQ(rep.chains.size(), 8u);
  for (const auto& st : rep.stages) EXPECT_EQ(st.samples, 8);
}

TEST(CriticalPath, DegradesGracefullyOnEmptyOrPartialInput) {
  EXPECT_FALSE(analyze_spans({}).valid);

  // Phase spans but no flows: still a verdict, flagged in the note.
  auto spans = synthetic_pipeline(3);
  std::vector<Span> no_flows;
  for (const auto& s : spans)
    if (std::string(s.category) == "pipeline") no_flows.push_back(s);
  const auto rep = analyze_spans(no_flows);
  ASSERT_TRUE(rep.valid);
  EXPECT_FALSE(rep.note.empty());
  // Without flows the wait bound is zero, so intrinsic == service and the
  // verdict falls back to raw phase times (stage 1 still dominates).
  EXPECT_EQ(rep.gating_task, 1);

  // A CPI missing one stage's triple is excluded from the steady state.
  auto partial = synthetic_pipeline(3);
  partial.erase(
      std::remove_if(partial.begin(), partial.end(),
                     [](const Span& s) {
                       return s.cpi == 1 && s.task == 2 &&
                              std::string(s.category) == "pipeline";
                     }),
      partial.end());
  const auto rep2 = analyze_spans(partial);
  ASSERT_TRUE(rep2.valid);
  EXPECT_EQ(rep2.chains.size(), 2u);
}

TEST(CriticalPath, TaskLabelsMatchTheTraceContract) {
  EXPECT_EQ(stap_task_label(0), "Doppler filter processing");
  EXPECT_EQ(stap_task_label(2), "hard weight computation");
  EXPECT_EQ(stap_task_label(6), "CFAR processing");
  EXPECT_EQ(stap_task_label(42), "task42");
}

TEST(CriticalPath, ReportSerializesToJson) {
  const auto rep = analyze_spans(synthetic_pipeline(3));
  const Json doc = Json::parse(rep.to_json().dump(2));
  EXPECT_TRUE(doc.find("valid")->as_bool());
  EXPECT_EQ(doc.find("gating_task")->as_number(), 1.0);
  EXPECT_EQ(doc.find("stages")->size(), 3u);
  EXPECT_NEAR(doc.find("accounted_fraction")->as_number(), 1.0, 1e-9);
  ASSERT_NE(doc.find("latency_breakdown"), nullptr);
  ASSERT_NE(doc.find("recommendation"), nullptr);
  EXPECT_EQ(doc.find("recommendation")->find("add_ranks")->as_number(), 1.0);
}

#if PPSTAP_ENABLE_TRACING

// ---------------------------------------------------------------------------
// Recorder-dependent integration (live spans, comm flow spans, flight
// recorder, simulator verdicts).
// ---------------------------------------------------------------------------

class TracedTest : public ::testing::Test {
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

TEST_F(TracedTest, ChromeTraceRoundTripPreservesTheVerdict) {
  for (const auto& s : synthetic_pipeline(3)) emit(s);
  const auto direct = analyze_spans(snapshot());
  const auto round = analyze_trace(chrome_trace_json());
  ASSERT_TRUE(direct.valid);
  ASSERT_TRUE(round.valid);
  EXPECT_EQ(round.gating_task, direct.gating_task);
  EXPECT_NEAR(round.period, direct.period, 1e-6);
  EXPECT_EQ(round.chains.size(), direct.chains.size());
  EXPECT_NEAR(round.accounted_fraction, direct.accounted_fraction, 1e-6);
  EXPECT_NEAR(round.mean_latency, direct.mean_latency, 1e-6);
}

TEST_F(TracedTest, ChromeTraceRoundTripKeepsTheFrontEndSpan) {
  for (const auto& s : synthetic_pipeline(3)) emit(s);
  for (int i = 0; i < 3; ++i)
    emit(front_end(i, i - 0.20, i - 0.05));
  const auto direct = analyze_spans(snapshot());
  const auto round = analyze_trace(chrome_trace_json());
  ASSERT_EQ(round.chains.size(), direct.chains.size());
  for (size_t i = 0; i < direct.chains.size(); ++i) {
    EXPECT_NEAR(direct.chains[i].latency, 1.60, 1e-9);
    EXPECT_NEAR(round.chains[i].latency, direct.chains[i].latency, 1e-6);
  }
}

TEST_F(TracedTest, CommEmitsFlowSpanOnDelivery) {
  comm::World world(2);
  world.run([](comm::Comm& c) {
    const int tag = 5;
    if (c.rank() == 0) {
      std::vector<float> payload(256, 1.0f);
      comm::FlowContext fc;
      fc.cpi = 7;
      fc.task = 3;
      fc.edge = 2;
      fc.hop = 1;
      c.send<float>(1, tag, payload, &fc);
    } else {
      (void)c.recv<float>(0, tag);
    }
  });
  const auto spans = snapshot();
  int xfers = 0;
  for (const auto& s : spans) {
    if (std::string(s.category) != "flow") continue;
    ++xfers;
    EXPECT_STREQ(s.name, "xfer");
    EXPECT_EQ(s.task, kFlowTrack);
    EXPECT_EQ(s.rank, 1);        // receiver-side span
    EXPECT_EQ(s.src_rank, 0);
    EXPECT_EQ(s.src_task, 3);
    EXPECT_EQ(s.edge, 2);
    EXPECT_EQ(s.hop, 1);
    EXPECT_EQ(s.cpi, 7);
    EXPECT_EQ(s.bytes, 256 * static_cast<std::int64_t>(sizeof(float)));
    EXPECT_GE(s.t_end, s.t_start);
    EXPECT_GE(s.queue_s, 0.0);
    EXPECT_LE(s.queue_s, s.t_end - s.t_start + 1e-9);
  }
  EXPECT_EQ(xfers, 1);
}

TEST_F(TracedTest, PlainSendsAndMarkersEmitNoFlowSpan) {
  comm::World world(2);
  world.run([](comm::Comm& c) {
    if (c.rank() == 0) {
      std::vector<float> payload(16, 2.0f);
      c.send<float>(1, 1, payload);  // no flow context
      c.send_marker(1, 2);
    } else {
      (void)c.recv<float>(0, 1);
      (void)c.recv_bytes_for(0, 2, 5.0);
    }
  });
  for (const auto& s : snapshot())
    EXPECT_NE(std::string(s.category), "flow");
}

TEST_F(TracedTest, FlightRecorderDumpsOnWorldAbort) {
  const std::string path = ::testing::TempDir() + "ppstap_flight_test.json";
  std::remove(path.c_str());
  Config c;
  c.enabled = true;
  c.flight_armed = true;
  c.flight_path = path;
  configure(c);

  emit({"comp", "pipeline", 0, 0, 1, 1.0, 2.0, -1, -1});
  comm::World world(2);
  EXPECT_THROW(world.run([](comm::Comm& c2) {
                 if (c2.rank() == 1) throw Error("injected failure");
                 (void)c2.recv_bytes_for(1, 9, 30.0);
               }),
               Error);

  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good()) << "flight recorder did not write " << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  const Json doc = Json::parse(ss.str());
  const Json* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  ASSERT_NE(other->find("flight_reason"), nullptr);
  EXPECT_EQ(other->find("flight_reason")->as_string(), "world_abort");
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_GT(doc.find("traceEvents")->size(), 0u);
  std::remove(path.c_str());
}

TEST_F(TracedTest, UnarmedFlightRecorderWritesNothing) {
  const std::string path = ::testing::TempDir() + "ppstap_flight_off.json";
  std::remove(path.c_str());
  Config c;
  c.enabled = true;
  c.flight_armed = false;
  c.flight_path = path;
  configure(c);
  flight_dump("test_reason");
  std::ifstream is(path);
  EXPECT_FALSE(is.good());
}

// The headline validation: from simulator span streams alone, the analyzer
// reaches the same verdicts the paper derives by hand in Tables 9 and 10 —
// case 2 is gated by Doppler filtering (Table 9's motivation), the
// Table-10 assignment is STILL Doppler-gated (which is why its +16
// PC/CFAR nodes buy no throughput), and once Doppler is widened past
// that, the hard weight task — pinned at its 56-node partitioning limit —
// becomes the wall (the paper's closing observation).
TEST_F(TracedTest, SimulatorTraceReproducesTable9And10Verdicts) {
  core::PipelineSimulator sim(stap::StapParams{},
                              core::ParagonParams::calibrated());
  struct Case {
    core::NodeAssignment a;
    int expect;
  } cases[] = {
      {core::NodeAssignment::paper_case2(), 0},    // Doppler filter
      {core::NodeAssignment::paper_table10(), 0},  // still Doppler
      {core::NodeAssignment{{28, 8, 56, 8, 14, 16, 16}}, 2},  // hard weights
  };
  for (const auto& [a, expect] : cases) {
    reset();
    const auto r = sim.simulate(a);
    const auto rep = analyze_spans(snapshot());
    ASSERT_TRUE(rep.valid) << rep.note;
    EXPECT_EQ(rep.gating_task, expect);
    // The recovered period is eq. (1)'s max intrinsic time.
    EXPECT_NEAR(rep.throughput_estimate, r.throughput_equation,
                0.05 * r.throughput_equation);
    ASSERT_FALSE(rep.chains.empty());
    EXPECT_GE(rep.accounted_fraction, 0.95);
  }
}

#endif  // PPSTAP_ENABLE_TRACING

}  // namespace
}  // namespace ppstap::obs
