// Live-pipeline benchmark for the parallel pipelined STAP system.
//
// Drives core::ParallelStapPipeline — through its public setters and run()
// only — on four workloads and reports what a user of the pipeline sees:
// sink throughput (eq. 1), per-CPI latency (eq. 2), CPU cost, set-up time
// and memory. Every other layer is measured from outside by timing calls to
// its public functions. A separate traced run (--trace 1) adds per-layer
// attribution: kernel times and flop counts, QR and transport micro-costs,
// the Fig.-10 phase timers, bytes per Fig.-4 edge, recovery counters, and
// the critical-path breakdown obs::analyze_spans computes from the spans
// the pipeline already emits. See README.md in this directory.
//
//   ppstap_bench --workload W --seed S [--seconds N] [--trace 0|1]
//                [--smoke] [--json FILE] [--chrome FILE]
//
// The last line on stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Every run compares pipeline detections bit-exactly
// against stap::SequentialStap on the same seeded stream; any mismatch,
// shed or rejected CPI counts as failed and the exit code is 1.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "common/flops.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "kernels/dispatch.hpp"
#include "linalg/qr.hpp"
#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stap/beamform.hpp"
#include "stap/cfar.hpp"
#include "stap/doppler.hpp"
#include "stap/flops.hpp"
#include "stap/pulse_compression.hpp"
#include "stap/sequential.hpp"
#include "stap/training.hpp"
#include "stap/weights.hpp"
#include "synth/scenario.hpp"
#include "synth/steering.hpp"

extern char** environ;

namespace {

using namespace ppstap;
using obs::Json;
using stap::Task;

constexpr int kNumTasks = stap::kNumTasks;
constexpr int kNumEdges = core::kNumPipelineEdges;
// Pipeline fill and drain, excluded from every timing (the paper drops the
// first 3 and last 2 of 25 CPIs).
constexpr index_t kWarmup = 3;
constexpr index_t kCooldown = 2;
// CPIs of each untraced rep compared against SequentialStap (the traced
// run compares its whole stream).
constexpr index_t kCheckCpis = 48;
// Pipeline tags are cpi * 16 + edge slot (comm/world.hpp).
constexpr int kTagStride = 16;
// Trace track of the benchmark's own spans around layer calls.
constexpr int kBenchTrack = -6;

constexpr std::array<const char*, kNumTasks> kTaskKey = {
    "doppler", "easy_wt", "hard_wt", "easy_bf", "hard_bf", "pc", "cfar"};
constexpr std::array<const char*, kNumEdges> kEdgeKey = {
    "dop_easywt",  "dop_hardwt", "dop_easybf", "dop_hardbf", "easywt_easybf",
    "hardwt_hardbf", "easybf_pc", "hardbf_pc",  "pc_cfar"};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Scene { kWall, kSmall };

struct Workload {
  const char* name;
  Scene scene;
  std::array<int, kNumTasks> nodes;
  double rate;       ///< offered CPI/s; 0 = closed loop
  index_t rep_cpis;  ///< CPIs per rep; a run repeats reps to fill --seconds
  bool guarded;      ///< ABFT + spare + seeded FaultPlan
};

// Why each exists is in README.md: wall-closed is gated by the hard-weight
// QR (eq. 1), wall-paced takes the weights off the latency path and moves
// ~5 MB/CPI over the Doppler->weights/BF edges, fanout-paced is the small
// scene over all-to-all edges (synthesis and wake-up queueing set its
// latency), guarded-paced runs the same layers through their recovery paths.
// The paced rates leave at least 2x headroom over the slowest stage, so a
// host slowdown of tens of percent stretches latency in proportion instead
// of pushing the pipeline into saturation. wall-paced's reps are long enough
// that 3 of them pool at least 200 latency samples (ten beyond p95).
constexpr Workload kWorkloads[] = {
    {"wall-closed", Scene::kWall, {1, 1, 1, 1, 1, 1, 1}, 0.0, 40, false},
    {"wall-paced", Scene::kWall, {1, 1, 1, 1, 1, 1, 1}, 8.0, 72, false},
    {"fanout-paced", Scene::kSmall, {2, 1, 1, 2, 2, 1, 1}, 100.0, 600, false},
    {"guarded-paced", Scene::kSmall, {2, 1, 1, 2, 2, 1, 1}, 100.0, 600, true},
};
// A run never has fewer reps than this, whatever --seconds says.
constexpr int kMinReps = 3;
// Admitted-but-unfinished CPIs, on every workload. The pipeline's
// CpiSource keeps only the last 4 cubes: with more in flight, a Doppler
// rank stalled by the host falls behind that window, regenerates cubes, and
// the run aborts after 64 of them. At this bound an open loop throttles
// instead, and the due-time latency charges the wait.
constexpr index_t kMaxInFlight = 4;
constexpr double kCorruptProbability = 0.01;  // per frame, every edge
constexpr index_t kFlipEvery = 50;            // one bit-30 flip per 50 CPIs

struct Setup {
  stap::StapParams p;
  synth::ScenarioParams sp;
  linalg::MatrixCF steering;
};

Setup make_setup(Scene scene, std::uint64_t seed) {
  Setup s;
  stap::StapParams& p = s.p;
  synth::ScenarioParams& sp = s.sp;
  if (scene == Scene::kWall) {
    // Paper geometry (J=16, N=128, M=6, 56 hard bins) at K=128 with 4 hard
    // segments: the hard-weight QR is the heaviest stage while scene
    // synthesis, which runs inline in Doppler's receive phase, stays well
    // under the period. Paper-shaped K=512 would measure synthesis.
    p.num_range = 128;
    p.num_segments = 4;
    sp.clutter.num_patches = 8;
    sp.chirp_length = 32;
  } else {
    // bench/host_pipeline geometry: every stage computes in well under a
    // millisecond, so per-hop handoff and framing set the latency.
    p.num_range = 128;
    p.num_channels = 8;
    p.num_pulses = 32;
    p.num_beams = 2;
    p.num_hard = 12;
    p.stagger = 2;
    p.num_segments = 3;
    p.easy_samples_per_cpi = 24;
    p.hard_samples_per_segment = 16;
    p.cfar_ref = 6;
    p.cfar_guard = 2;
    sp.clutter.num_patches = 2;
    sp.chirp_length = 16;
  }
  p.intra_task_threads = 1;
  p.validate();
  sp.num_range = p.num_range;
  sp.num_channels = p.num_channels;
  sp.num_pulses = p.num_pulses;
  sp.clutter.cnr_db = 40.0;
  // The seed picks the clutter/noise realization and the target layout.
  Rng rng(0x6c697665ULL ^ (seed * 0x9e3779b97f4a7c15ULL));
  sp.seed = rng.next_u64();
  for (int t = 0; t < 3; ++t) {
    synth::Target tg;
    tg.range_cell = 16 + static_cast<index_t>(
                             rng.uniform() * static_cast<double>(p.num_range - 32));
    tg.doppler_norm = rng.uniform(0.15, 0.4) * (t % 2 == 0 ? 1.0 : -1.0);
    tg.snr_db = rng.uniform(8.0, 14.0);
    sp.targets.push_back(tg);
  }
  s.steering = synth::steering_matrix(p.num_channels, p.num_beams,
                                      p.beam_center_rad, p.beam_span_rad);
  return s;
}

// The guarded workload's seeded faults: 1% of frames corrupted on each of
// the nine Fig.-4 edges (repaired by retransmission) and one top-exponent
// bit flip every kFlipEvery CPIs, rotating over the seven tasks (repaired
// by the ABFT recompute).
std::unique_ptr<comm::FaultPlan> make_fault_plan(const Workload& w,
                                                 std::uint64_t seed,
                                                 index_t n_cpis) {
  if (!w.guarded) return nullptr;
  auto plan = std::make_unique<comm::FaultPlan>(seed);
  for (int e = 0; e < kNumEdges; ++e) {
    comm::FaultRule r;
    r.type = comm::FaultType::kCorrupt;
    r.tag_period = kTagStride;
    r.tag_phase = e;
    r.probability = kCorruptProbability;
    plan->add(r);
  }
  for (index_t cpi = kFlipEvery / 2; cpi < n_cpis; cpi += kFlipEvery)
    plan->add_compute(comm::FaultPlan::flip_stage(
        static_cast<int>((cpi / kFlipEvery) % kNumTasks), cpi, 30, 1));
  return plan;
}

// Every config object is set explicitly so no environment default leaks in.
void configure(core::ParallelStapPipeline& pipe, const Workload& w,
               comm::FaultPlan* plan) {
  core::OverloadConfig ov;
  ov.enabled = true;
  ov.ladder = false;
  ov.reject_when_full = false;  // throttle: no CPI is ever rejected
  ov.queue_low = ov.queue_high = kMaxInFlight;
  if (w.rate > 0.0) ov.arrival_period_seconds = 1.0 / w.rate;
  pipe.set_overload(ov);

  core::FaultToleranceConfig ft;
  if (w.guarded) ft.spares = 1;
  pipe.set_fault_tolerance(ft);

  core::IntegrityConfig ic;
  ic.enabled = w.guarded;
  pipe.set_integrity(ic);

  pipe.set_elastic(core::ElasticConfig{});
  pipe.set_health(core::HealthConfig{});
  pipe.set_fault_plan(plan);
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); NaN when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Median seconds of `batches` timings of `iters` back-to-back calls,
/// per call.
template <typename F>
double per_call_median(int batches, int iters, F&& fn) {
  std::vector<double> t;
  for (int b = 0; b < batches; ++b) {
    WallTimer timer;
    for (int i = 0; i < iters; ++i) fn();
    t.push_back(timer.elapsed() / iters);
  }
  return median(std::move(t));
}

/// Nanoseconds per step of a dependent multiply-add chain: the host's
/// current single-thread speed. On a shared virtual machine it drifts by
/// 20% from minute to minute, and every time metric drifts with it, so it
/// is recorded beside the results (README.md, "Confounds").
double clock_probe_ns() {
  constexpr int kSteps = 1 << 21;
  const double s = per_call_median(9, 1, [] {
    double x = 1.0;
    for (int i = 0; i < kSteps; ++i) x = x * 1.0000001 + 1e-9;
    volatile double sink = x;
    (void)sink;
  });
  return 1e9 * s / kSteps;
}

bool same_detections(const std::vector<stap::Detection>& a,
                     const std::vector<stap::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].doppler_bin != b[i].doppler_bin || a[i].beam != b[i].beam ||
        a[i].range != b[i].range ||
        std::bit_cast<std::uint32_t>(a[i].power) !=
            std::bit_cast<std::uint32_t>(b[i].power) ||
        std::bit_cast<std::uint32_t>(a[i].threshold) !=
            std::bit_cast<std::uint32_t>(b[i].threshold))
      return false;
  return true;
}

using Detections = std::vector<std::vector<stap::Detection>>;

/// The single-node oracle on the same seeded stream.
Detections reference(const Setup& s, index_t n_cpis) {
  synth::ScenarioGenerator gen(s.sp);
  stap::SequentialStap seq(s.p, s.steering, gen.replica());
  Detections out;
  for (index_t i = 0; i < n_cpis; ++i)
    out.push_back(seq.process(gen.generate(i)).detections);
  return out;
}

/// Ordered metric list; emitted as {"name": {"value": v, "unit": u}}.
class Metrics {
 public:
  void add(std::string name, double value, const char* unit) {
    items_.push_back({std::move(name), value, unit});
  }
  bool all_finite() const {
    return std::all_of(items_.begin(), items_.end(),
                       [](const Item& i) { return std::isfinite(i.value); });
  }
  Json to_json() const {
    Json out = Json::object();
    for (const auto& i : items_) {
      Json m = Json::object();
      m["value"] = std::isfinite(i.value) ? i.value : -1.0;
      m["unit"] = i.unit;
      out[i.name] = std::move(m);
    }
    return out;
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

// ---------------------------------------------------------------------------
// Pipeline reps
// ---------------------------------------------------------------------------

struct Rep {
  core::PipelineResult r;
  index_t n_cpis = 0;
  double setup_s = 0.0;  ///< construction of generator + pipeline -> CPI 0 at the sink
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t flips = 0;
  std::uint64_t regenerations = 0;
  bool threw = false;
  std::string error;

  // Derived, over the measured CPIs [kWarmup, n_cpis - kCooldown).
  double throughput = 0.0;       ///< 1 / mean inter-completion gap, CPI/s
  std::vector<double> latency;   ///< e2e per measured CPI, seconds
  std::vector<double> lateness;  ///< open loop: admission - due, seconds
  index_t failed = 0;            ///< shed + rejected + mismatched CPIs
};

/// Sink rate and per-CPI latency as the workload defines them. The pipeline
/// runs with no warm-up of its own, so that CPI 0's admission, the origin of
/// the arrival schedule (OverloadController: first admission + i * period),
/// is in the result; fill is dropped here instead. Closed loop: latency from
/// admission to sink. Open loop: from the CPI's due time, so generator
/// lateness is charged to the CPI.
void derive_timing(const Workload& w, Rep& rep) {
  const auto& r = rep.r;
  const auto done = [&](index_t cpi) {
    return r.completion_times[static_cast<size_t>(cpi)];
  };
  const index_t last = rep.n_cpis - kCooldown - 1;
  if (r.completion_times.size() != static_cast<size_t>(rep.n_cpis) ||
      std::count(r.completion_times.begin(), r.completion_times.end(), 0.0) > 0)
    throw std::runtime_error("a CPI never reached the sink");
  rep.throughput = static_cast<double>(last - kWarmup + 1) /
                   (done(last) - done(kWarmup - 1));
  const double period = w.rate > 0.0 ? 1.0 / w.rate : 0.0;
  if (r.per_cpi_index.empty() || r.per_cpi_index[0] != 0)
    throw std::runtime_error("CPI 0 has no latency (shed)");
  const double origin = done(0) - r.per_cpi_latency[0];
  for (size_t i = 0; i < r.per_cpi_index.size(); ++i) {
    const auto cpi = r.per_cpi_index[i];
    if (cpi < kWarmup || cpi > last) continue;
    if (period == 0.0) {
      rep.latency.push_back(r.per_cpi_latency[i]);
      continue;
    }
    const double due = origin + static_cast<double>(cpi) * period;
    rep.latency.push_back(done(cpi) - due);
    rep.lateness.push_back(done(cpi) - r.per_cpi_latency[i] - due);
  }
}

/// Shed, rejected, and (within the first `n_check` CPIs) detections that
/// differ from the reference; a rep that threw fails every CPI.
void count_failures(const Detections& ref, index_t n_check, Rep& rep) {
  if (rep.threw) {
    rep.failed = rep.n_cpis;
    return;
  }
  std::vector<char> bad(static_cast<size_t>(rep.n_cpis), 0);
  for (const auto cpi : rep.r.faults.shed_cpis) bad[static_cast<size_t>(cpi)] = 1;
  for (const auto cpi : rep.r.overload.rejected_cpis)
    bad[static_cast<size_t>(cpi)] = 1;
  for (index_t i = 0; i < n_check; ++i)
    if (!same_detections(rep.r.detections[static_cast<size_t>(i)],
                         ref[static_cast<size_t>(i)]))
      bad[static_cast<size_t>(i)] = 1;
  rep.failed = std::count(bad.begin(), bad.end(), 1);
}

Rep run_rep(const Workload& w, const Setup& s, std::uint64_t seed,
            index_t n_cpis, const Detections& ref) {
  Rep rep;
  rep.n_cpis = n_cpis;
  auto plan = make_fault_plan(w, seed, n_cpis);
  auto& regen = obs::Registry::global().counter("cpi_source.regenerations");
  const std::uint64_t regen0 = regen.value();
  const double cpu0 = cpu_seconds();
  const double t0 = WallTimer::now();
  try {
    synth::ScenarioGenerator gen(s.sp);
    core::ParallelStapPipeline pipe(s.p, core::NodeAssignment{w.nodes},
                                    s.steering,
                                    {gen.replica().begin(), gen.replica().end()});
    configure(pipe, w, plan.get());
    rep.r = pipe.run(gen, n_cpis, 0, kCooldown);
  } catch (const std::exception& e) {
    rep.threw = true;
    rep.error = e.what();
  }
  rep.wall_s = WallTimer::now() - t0;
  rep.cpu_s = cpu_seconds() - cpu0;
  rep.regenerations = regen.value() - regen0;
  if (plan) rep.flips = plan->stats().flips;
  if (!rep.threw) {
    try {
      derive_timing(w, rep);
      rep.setup_s = rep.r.completion_times[0] - t0;
    } catch (const std::exception& e) {
      rep.threw = true;
      rep.error = e.what();
    }
  }
  count_failures(ref, std::min<index_t>(n_cpis, static_cast<index_t>(ref.size())),
                 rep);
  if (rep.threw)
    std::fprintf(stderr, "ppstap_bench: rep failed: %s\n", rep.error.c_str());
  return rep;
}

// ---------------------------------------------------------------------------
// Layer harness (traced run): each layer timed through its public API
// ---------------------------------------------------------------------------

/// Times one call and emits a bench span around it.
template <typename F>
double timed(const char* name, std::int64_t item, F&& fn) {
  obs::ScopedSpan span(name, "bench", 0, kBenchTrack, item);
  WallTimer timer;
  fn();
  return timer.elapsed();
}

void layer_synth(const Setup& s, Metrics& m) {
  synth::ScenarioGenerator gen(s.sp);
  std::vector<double> t;
  for (index_t i = 0; i < 9; ++i)
    t.push_back(timed("synth.generate", i, [&] { (void)gen.generate(i); }));
  m.add("synth.generate_ms", 1e3 * median(t), "ms");
}

/// The seven stage kernels on whole cubes, one thread, called in the order
/// and with the arguments SequentialStap::process uses; plus the whole
/// sequential chain (the single-node baseline).
void layer_stap(const Setup& s, int samples, Metrics& m) {
  const stap::StapParams& p = s.p;
  synth::ScenarioGenerator gen(s.sp);
  stap::DopplerFilter doppler(p);
  stap::PulseCompressor compressor(p, gen.replica());
  const auto easy_bins = p.easy_bins();
  const auto hard_bins = p.hard_bins();
  const auto easy_cells = stap::easy_training_cells(p);
  std::vector<std::vector<index_t>> hard_cells;
  for (index_t seg = 0; seg < p.num_segments; ++seg)
    hard_cells.push_back(stap::hard_training_cells(p, seg));
  stap::EasyWeightComputer easy(p, s.steering, easy_bins);
  stap::HardWeightComputer hard(
      p, s.steering,
      stap::HardWeightComputer::units_for_bins(p, std::span<const index_t>(hard_bins)));
  stap::WeightSet easy_w = easy.compute();
  stap::WeightSet hard_w{hard_bins, hard.compute()};
  std::vector<index_t> all_bins(static_cast<size_t>(p.num_pulses));
  std::iota(all_bins.begin(), all_bins.end(), index_t{0});

  const index_t k = p.num_range;
  const index_t j = p.num_channels;
  const index_t jj = p.num_staggered_channels();
  std::array<std::vector<double>, kNumTasks> t;
  std::array<std::uint64_t, kNumTasks> flops{};
  // The first easy_history CPIs fill the pooled training history so every
  // sampled easy solve has its steady-state shape.
  const index_t prime = p.easy_history;
  for (index_t cpi = 0; cpi < prime + samples; ++cpi) {
    const bool keep = cpi >= prime;
    auto stage = [&](Task task, const char* name, auto&& fn) {
      FlopScope scope;
      const double dt = timed(name, cpi, fn);
      if (keep) {
        t[static_cast<size_t>(task)].push_back(dt);
        flops[static_cast<size_t>(task)] = scope.count();
      }
    };
    const cube::CpiCube raw = gen.generate(cpi);
    cube::CpiCube stag;
    stage(Task::kDopplerFilter, "stap.doppler", [&] { stag = doppler.filter(raw); });

    // Redistribution (untimed: the sequential analogue of Fig. 8).
    cube::CpiCube easy_data(static_cast<index_t>(easy_bins.size()), k, j);
    for (size_t b = 0; b < easy_bins.size(); ++b)
      for (index_t kk = 0; kk < k; ++kk)
        for (index_t ch = 0; ch < j; ++ch)
          easy_data.at(static_cast<index_t>(b), kk, ch) =
              stag.at(kk, ch, easy_bins[b]);
    cube::CpiCube hard_data(static_cast<index_t>(hard_bins.size()), k, jj);
    for (size_t b = 0; b < hard_bins.size(); ++b)
      for (index_t kk = 0; kk < k; ++kk)
        for (index_t ch = 0; ch < jj; ++ch)
          hard_data.at(static_cast<index_t>(b), kk, ch) =
              stag.at(kk, ch, hard_bins[b]);

    cube::CpiCube easy_bf, hard_bf;
    stage(Task::kEasyBeamform, "stap.easy_bf",
          [&] { easy_bf = stap::easy_beamform(easy_data, easy_w, p); });
    stage(Task::kHardBeamform, "stap.hard_bf",
          [&] { hard_bf = stap::hard_beamform(hard_data, hard_w, p); });

    cube::CpiCube combined(p.num_pulses, p.num_beams, k);
    for (size_t b = 0; b < easy_bins.size(); ++b)
      for (index_t mm = 0; mm < p.num_beams; ++mm) {
        auto src = easy_bf.line(static_cast<index_t>(b), mm);
        std::copy(src.begin(), src.end(), combined.line(easy_bins[b], mm).begin());
      }
    for (size_t b = 0; b < hard_bins.size(); ++b)
      for (index_t mm = 0; mm < p.num_beams; ++mm) {
        auto src = hard_bf.line(static_cast<index_t>(b), mm);
        std::copy(src.begin(), src.end(), combined.line(hard_bins[b], mm).begin());
      }

    cube::RealCube power;
    stage(Task::kPulseCompression, "stap.pc",
          [&] { power = compressor.compress(combined); });
    stage(Task::kCfar, "stap.cfar",
          [&] { (void)stap::cfar_detect(power, all_bins, p); });
    stage(Task::kEasyWeight, "stap.easy_wt", [&] {
      std::vector<linalg::MatrixCF> rows;
      for (index_t bin : easy_bins)
        rows.push_back(stap::gather_training(stag, easy_cells, bin, false, p));
      easy.push_training(std::move(rows));
      easy_w = easy.compute();
    });
    stage(Task::kHardWeight, "stap.hard_wt", [&] {
      std::vector<linalg::MatrixCF> rows;
      for (index_t bin : hard_bins)
        for (index_t seg = 0; seg < p.num_segments; ++seg)
          rows.push_back(stap::gather_training(
              stag, hard_cells[static_cast<size_t>(seg)], bin, true, p));
      hard.update(rows);
      hard_w.weights = hard.compute();
    });
  }
  for (int task = 0; task < kNumTasks; ++task)
    m.add(std::string("stap.") + kTaskKey[static_cast<size_t>(task)] + "_ms",
          1e3 * median(t[static_cast<size_t>(task)]), "ms");
  for (int task = 0; task < kNumTasks; ++task)
    m.add(std::string("stap.") + kTaskKey[static_cast<size_t>(task)] + "_mflop",
          1e-6 * static_cast<double>(flops[static_cast<size_t>(task)]), "Mflop");

  // Whole chain, generation excluded.
  stap::SequentialStap seq(p, s.steering, gen.replica());
  std::vector<double> chain;
  for (index_t cpi = 0; cpi < prime + samples; ++cpi) {
    const cube::CpiCube raw = gen.generate(cpi);
    const double dt = timed("stap.chain", cpi, [&] { (void)seq.process(raw); });
    if (cpi >= prime) chain.push_back(dt);
  }
  m.add("stap.chain_ms", 1e3 * median(chain), "ms");
}

linalg::MatrixCF random_matrix(index_t rows, index_t cols, Rng& rng) {
  linalg::MatrixCF a(rows, cols);
  for (index_t i = 0; i < rows; ++i)
    for (index_t c = 0; c < cols; ++c) a(i, c) = cfloat(rng.cnormal());
  return a;
}

/// The two QR shapes of the weight path: the hard recursive row append
/// (hard_samples_per_segment rows into a 2J x 2J R) and the easy solve's
/// fresh factorization (pooled history over J constraint rows, J columns).
void layer_linalg(const Setup& s, std::uint64_t seed, Metrics& m) {
  const stap::StapParams& p = s.p;
  Rng rng(seed + 0x51);
  const index_t jj = p.num_staggered_channels();
  const linalg::MatrixCF r =
      linalg::QrFactorization<cfloat>(random_matrix(2 * jj, jj, rng)).r();
  const linalg::MatrixCF x = random_matrix(p.hard_samples_per_segment, jj, rng);
  const linalg::MatrixCF a = random_matrix(
      p.easy_history * p.easy_samples_per_cpi + p.num_channels, p.num_channels,
      rng);
  double append_s = 0.0, factor_s = 0.0;
  timed("linalg.qr_append", -1, [&] {
    append_s = per_call_median(9, 40, [&] { (void)linalg::qr_append_rows(r, x); });
  });
  timed("linalg.qr_factor", -1, [&] {
    factor_s = per_call_median(9, 40, [&] { linalg::QrFactorization<cfloat> qr(a); });
  });
  m.add("linalg.qr_append_us", 1e6 * append_s, "us");
  m.add("linalg.qr_factor_us", 1e6 * factor_s, "us");
}

/// Transport between two ranks of a comm::World: the 64-byte handoff
/// (ping-pong RTT / 2) and the copy rate of the largest Doppler -> hard-BF
/// message of the workload's assignment.
void layer_comm(const Workload& w, const Setup& s, Metrics& m) {
  const stap::StapParams& p = s.p;
  const auto ceil_div = [](index_t a, index_t b) { return (a + b - 1) / b; };
  const auto big_bytes = static_cast<size_t>(
      ceil_div(p.num_range, w.nodes[0]) * p.num_staggered_channels() *
      ceil_div(p.num_hard, w.nodes[static_cast<size_t>(Task::kHardBeamform)]) *
      static_cast<index_t>(sizeof(cfloat)));
  constexpr int kBatches = 9;
  constexpr int kPings = 200;
  constexpr int kCopies = 8;
  std::vector<double> handoff, copy;
  comm::World world(2);
  timed("comm.handoff_copy", -1, [&] {
    world.run([&](comm::Comm& c) {
      const std::vector<std::byte> small(64);
      const std::vector<std::byte> big(big_bytes);
      const int peer = 1 - c.rank();
      for (int b = 0; b < kBatches; ++b) {
        WallTimer timer;
        for (int i = 0; i < kPings; ++i) {
          if (c.rank() == 0) {
            c.send_bytes(peer, 1, small);
            (void)c.recv_bytes(peer, 2);
          } else {
            (void)c.recv_bytes(peer, 1);
            c.send_bytes(peer, 2, small);
          }
        }
        if (c.rank() == 0) handoff.push_back(timer.elapsed() / (2.0 * kPings));
      }
      for (int b = 0; b < kBatches; ++b) {
        WallTimer timer;
        for (int i = 0; i < kCopies; ++i) {
          if (c.rank() == 0) {
            c.send_bytes(peer, 3, big);
            (void)c.recv_bytes(peer, 4);
          } else {
            (void)c.recv_bytes(peer, 3);
            c.send_bytes(peer, 4, std::span(small).first(1));
          }
        }
        if (c.rank() == 0) copy.push_back(timer.elapsed() / kCopies);
      }
    });
  });
  const double handoff_s = median(handoff);
  // A copy round trip is the big one-way transfer plus one small handoff.
  const double copy_s = std::max(1e-9, median(copy) - handoff_s);
  m.add("comm.handoff_us", 1e6 * handoff_s, "us");
  m.add("comm.copy_gbs", static_cast<double>(big_bytes) / copy_s / 1e9, "GB/s");
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;
  std::string json_path;
  std::string chrome_path = "ppstap_e2e.trace.json";
};

index_t rep_cpis(const Workload& w, const Options& o) {
  return o.smoke ? std::min<index_t>(w.rep_cpis, 200) : w.rep_cpis;
}

Json host_json() {
  const auto& simd = kernels::simd_info();
  Json h = Json::object();
  h["nproc"] = static_cast<int>(std::thread::hardware_concurrency());
  h["simd_level"] = simd.level_name;
  h["simd_source"] = simd.source;
  return h;
}

Json rep_json(const Rep& rep) {
  Json j = Json::object();
  j["cpis"] = static_cast<long long>(rep.n_cpis);
  j["failed"] = static_cast<long long>(rep.failed);
  j["threw"] = rep.threw;
  if (rep.threw) {
    j["error"] = rep.error;
    return j;
  }
  j["throughput_cpi_s"] = rep.throughput;
  j["setup_s"] = rep.setup_s;
  j["wall_s"] = rep.wall_s;
  j["cpu_s"] = rep.cpu_s;
  j["latency_p50_s"] = quantile(rep.latency, 0.5);
  j["latency_samples"] = static_cast<long long>(rep.latency.size());
  return j;
}

struct Outcome {
  Metrics metrics;
  Json doc = Json::object();
  long long attempted = 0;
  long long failed = 0;
  bool correct = true;
};

Outcome run_untraced(const Workload& w, const Options& o) {
  const Setup s = make_setup(w.scene, o.seed);
  const index_t n = rep_cpis(w, o);
  WallTimer ref_timer;
  const Detections ref = reference(s, std::min(n, kCheckCpis));
  const double ref_s = ref_timer.elapsed();

  const double probe_before = clock_probe_ns();
  // A paced rep lasts n / rate, so the rep count is fixed up front and every
  // run pools the same number of samples. Closed-loop reps repeat until one
  // more of the mean length would overrun --seconds. At least kMinReps.
  const int paced_reps =
      w.rate > 0.0 ? std::max(kMinReps, static_cast<int>(o.seconds * w.rate /
                                                         static_cast<double>(n)))
                   : 0;
  std::vector<Rep> reps;
  WallTimer budget;
  do {
    reps.push_back(run_rep(w, s, o.seed, n, ref));
  } while (!o.smoke &&
           (w.rate > 0.0
                ? static_cast<int>(reps.size()) < paced_reps
                : (static_cast<int>(reps.size()) < kMinReps ||
                   budget.elapsed() * (1.0 + 1.0 / static_cast<double>(reps.size())) <=
                       o.seconds)));
  const double measured_s = budget.elapsed();

  // Latency quantiles pool the reps' samples, so that at least ten lie
  // beyond p95. The other metrics but the process high-water mark are
  // medians over reps.
  Outcome out;
  std::vector<double> tput, lat, cpu, setup, late;
  for (const Rep& rep : reps) {
    out.attempted += rep.n_cpis;
    out.failed += rep.failed;
    if (rep.threw) continue;
    tput.push_back(rep.throughput);
    lat.insert(lat.end(), rep.latency.begin(), rep.latency.end());
    cpu.push_back(rep.cpu_s / static_cast<double>(rep.n_cpis));
    setup.push_back(rep.setup_s);
    late.insert(late.end(), rep.lateness.begin(), rep.lateness.end());
  }
  Metrics& m = out.metrics;
  m.add("throughput_cpi_s", median(tput), "1/s");
  m.add("latency_p50_s", quantile(lat, 0.50), "s");
  m.add("latency_p95_s", quantile(lat, 0.95), "s");
  m.add("cpu_s_per_cpi", median(cpu), "s");
  m.add("setup_s", median(setup), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");

  Json& d = out.doc;
  d["latency_samples"] = static_cast<long long>(lat.size());
  d["failed_frac"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  d["source_lateness_p95_s"] = late.empty() ? 0.0 : quantile(late, 0.95);
  d["clock_probe_ns"] = 0.5 * (probe_before + clock_probe_ns());
  d["reference_s"] = ref_s;
  d["measured_s"] = measured_s;
  d["checked_cpis_per_rep"] = static_cast<long long>(ref.size());
  Json rj = Json::array();
  for (const Rep& rep : reps) rj.push_back(rep_json(rep));
  d["reps"] = std::move(rj);
  out.correct = out.failed == 0 && m.all_finite();
  return out;
}

Outcome run_traced(const Workload& w, const Options& o) {
  const Setup s = make_setup(w.scene, o.seed);
  const index_t n = rep_cpis(w, o);
  // The traced run checks its whole stream; the oracle runs before
  // recording starts so its spans stay out of the trace.
  const Detections ref = reference(s, n);

  obs::Config on;
  on.enabled = true;
  on.path = o.chrome_path;
  // Room for every span of one rep (3 phases + incoming flow spans per CPI
  // per rank) so nothing wraps.
  on.capacity_per_thread = std::bit_ceil(static_cast<std::size_t>(32 * n + 4096));
  obs::Config off = on;
  off.enabled = false;
  obs::configure(on);
  obs::set_track_name(kBenchTrack, "bench");

  WallTimer budget;
  Outcome out;
  Metrics& m = out.metrics;
  layer_synth(s, m);
  layer_stap(s, o.smoke ? 2 : (w.scene == Scene::kWall ? 5 : 25), m);
  layer_linalg(s, o.seed, m);
  layer_comm(w, s, m);
  const std::vector<obs::Span> harness_spans = obs::snapshot();

  // Untraced and traced reps alternate, for the overhead, until the next
  // pair would overrun --seconds. Only the last traced rep stays recorded;
  // the harness spans are put back beside it for the Chrome trace.
  std::vector<Rep> plain, traced;
  WallTimer pairs;
  do {
    obs::configure(off);
    plain.push_back(run_rep(w, s, o.seed, n, ref));
    obs::reset();
    obs::configure(on);
    traced.push_back(run_rep(w, s, o.seed, n, ref));
  } while (!o.smoke &&
           (static_cast<int>(plain.size()) < kMinReps ||
            budget.elapsed() + pairs.elapsed() / static_cast<double>(plain.size()) <=
                o.seconds));
  for (const auto& span : harness_spans) obs::emit(span);
  const auto spans = obs::snapshot();
  const obs::BottleneckReport report = obs::analyze_spans(spans);
  const std::uint64_t dropped = obs::dropped_count();
  const bool wrote = obs::write_chrome_trace(o.chrome_path);
  obs::configure(off);

  bool threw = false;
  for (const auto* reps : {&plain, &traced})
    for (const Rep& rep : *reps) {
      out.attempted += rep.n_cpis;
      out.failed += rep.failed;
      threw |= rep.threw;
    }
  const Rep& last = traced.back();
  const core::PipelineResult& r = last.r;
  for (int t = 0; t < kNumTasks; ++t) {
    const auto& tt = r.timing[static_cast<size_t>(t)];
    const std::string base = std::string("core.") + kTaskKey[static_cast<size_t>(t)];
    m.add(base + ".recv_ms", 1e3 * tt.recv, "ms");
    m.add(base + ".comp_ms", 1e3 * tt.comp, "ms");
    m.add(base + ".send_ms", 1e3 * tt.send, "ms");
    m.add(base + ".wait_ms", 1e3 * r.queue_wait_per_cpi[static_cast<size_t>(t)], "ms");
  }
  for (int e = 0; e < kNumEdges; ++e)
    m.add(std::string("core.bytes.") + kEdgeKey[static_cast<size_t>(e)],
          1e-6 * r.bytes_per_edge_per_cpi[static_cast<size_t>(e)], "MB/CPI");
  m.add("core.regenerations", static_cast<double>(last.regenerations), "count");
  m.add("source.lateness_p95_ms",
        last.lateness.empty() ? 0.0 : 1e3 * quantile(last.lateness, 0.95), "ms");
  m.add("integrity.checks_failed", static_cast<double>(r.integrity.checks_failed), "count");
  m.add("integrity.repairs", static_cast<double>(r.integrity.repairs), "count");
  m.add("integrity.escalations", static_cast<double>(r.integrity.escalations), "count");
  m.add("integrity.detect_frac",
        last.flips == 0 ? 0.0
                          : std::min(1.0, static_cast<double>(r.integrity.checks_failed) /
                                              static_cast<double>(last.flips)),
        "ratio");
  m.add("comm.retransmits_per_kcpi",
        1e3 * static_cast<double>(r.faults.retransmissions) / static_cast<double>(n),
        "count/kCPI");
  m.add("fault.flips", static_cast<double>(last.flips), "count");

  double comp = 0, pack = 0, unpack = 0, transport = 0, queue = 0;
  for (const auto& c : report.chains) {
    comp += c.compute;
    pack += c.pack;
    unpack += c.unpack;
    transport += c.transport;
    queue += c.queue;
  }
  const double chains = std::max<double>(1.0, static_cast<double>(report.chains.size()));
  m.add("obs.gating_task", report.gating_task, "task");
  m.add("obs.period_ms", 1e3 * report.period, "ms");
  m.add("obs.path.compute_ms", 1e3 * comp / chains, "ms");
  m.add("obs.path.pack_ms", 1e3 * pack / chains, "ms");
  m.add("obs.path.unpack_ms", 1e3 * unpack / chains, "ms");
  m.add("obs.path.transport_ms", 1e3 * transport / chains, "ms");
  m.add("obs.path.queue_ms", 1e3 * queue / chains, "ms");
  m.add("obs.path.accounted_frac", report.accounted_fraction, "ratio");
  // What recording spans costs: CPU seconds of the traced reps over those of
  // the interleaved untraced ones (equal CPI counts), pooled over all pairs.
  // CPU time, unlike a per-rep latency or period, hardly moves with wake-up
  // timing, and pooling lets host drift between pairs cancel.
  const auto total = [](const std::vector<Rep>& reps, double Rep::*field) {
    double sum = 0.0;
    for (const Rep& rep : reps) sum += rep.*field;
    return sum;
  };
  m.add("obs.trace_overhead_frac",
        total(traced, &Rep::cpu_s) / total(plain, &Rep::cpu_s) - 1.0, "ratio");
  m.add("proc.busy_cores",
        (total(plain, &Rep::cpu_s) + total(traced, &Rep::cpu_s)) /
            (total(plain, &Rep::wall_s) + total(traced, &Rep::wall_s)),
        "cores");

  Json& d = out.doc;
  d["clock_probe_ns"] = clock_probe_ns();
  d["gating_task_name"] = report.gating_task_name;
  d["bottleneck_valid"] = report.valid;
  d["chains"] = static_cast<long long>(report.chains.size());
  d["spans"] = static_cast<long long>(spans.size());
  d["dropped_spans"] = static_cast<long long>(dropped);
  d["failed_frac"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  for (const auto& [key, reps] : {std::pair{"plain_reps", &plain},
                                  std::pair{"traced_reps", &traced}}) {
    Json rj = Json::array();
    for (const Rep& rep : *reps) rj.push_back(rep_json(rep));
    d[key] = std::move(rj);
  }
  out.correct = out.failed == 0 && !threw && report.valid && wrote &&
                dropped == 0 && m.all_finite();
  return out;
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ppstap_bench: %s\n"
               "usage: ppstap_bench --workload W --seed S [--seconds N] "
               "[--trace 0|1] [--smoke] [--json FILE] [--chrome FILE]\n"
               "workloads:",
               why);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        // Bare --trace, or an explicit 0/1.
        if (i + 1 < argc && (std::string(argv[i + 1]) == "0" ||
                             std::string(argv[i + 1]) == "1"))
          o.trace = std::string(argv[++i]) == "1";
        else
          o.trace = true;
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--json") {
        o.json_path = value();
      } else if (a == "--chrome") {
        o.chrome_path = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) usage("--seconds out of range");
  return o;
}

/// A leftover PPSTAP_* knob (kernel threads, overload, faults, tracing ...)
/// would silently change the workload; only PPSTAP_SIMD is allowed, and its
/// effect is recorded with the results.
std::vector<std::string> stray_environment() {
  std::vector<std::string> stray;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("PPSTAP_", 0) != 0) continue;
    const std::string name = kv.substr(0, kv.find('='));
    if (name != "PPSTAP_SIMD") stray.push_back(name);
  }
  return stray;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const auto stray = stray_environment();
  if (!stray.empty()) {
    for (const auto& name : stray)
      std::fprintf(stderr, "ppstap_bench: refusing to run with %s set\n", name.c_str());
    return 2;
  }
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads)
    if (o.workload == cand.name) w = &cand;
  if (w == nullptr) usage(("unknown workload " + o.workload).c_str());

  Outcome out;
  try {
    out = o.trace ? run_traced(*w, o) : run_untraced(*w, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppstap_bench: %s\n", e.what());
    return 1;
  }

  Json metrics = out.metrics.to_json();
  if (!o.json_path.empty()) {
    Json doc = Json::object();
    doc["schema"] = "ppstap-e2e-v1";
    doc["workload"] = w->name;
    doc["seed"] = static_cast<unsigned long long>(o.seed);
    doc["trace"] = o.trace;
    doc["smoke"] = o.smoke;
    doc["host"] = host_json();
    doc["correct"] = out.correct;
    doc["attempted"] = out.attempted;
    doc["failed"] = out.failed;
    doc["metrics"] = metrics;
    doc["detail"] = out.doc;
    std::ofstream f(o.json_path);
    f << doc.dump(2) << "\n";
    if (!f) {
      std::fprintf(stderr, "ppstap_bench: cannot write %s\n", o.json_path.c_str());
      return 1;
    }
  }
  Json line = Json::object();
  line["correct"] = out.correct;
  line["attempted"] = out.attempted;
  line["failed"] = out.failed;
  line["metrics"] = std::move(metrics);
  std::printf("%s\n", line.dump().c_str());
  if (!out.correct)
    std::fprintf(stderr, "ppstap_bench: %lld of %lld CPIs failed\n", out.failed,
                 out.attempted);
  return out.correct ? 0 : 1;
}
