#include "obs/trace.hpp"

#if PPSTAP_ENABLE_TRACING

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

#include "common/check.hpp"
#include "common/env.hpp"
#include "kernels/dispatch.hpp"
#include "common/timer.hpp"

namespace ppstap::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

// Fixed-capacity ring written only by its owning thread. `written` counts
// all emits (monotonic); the slot for emit n is n % capacity. The release
// store on `written` publishes the slot contents to a post-join reader.
struct ThreadBuffer {
  explicit ThreadBuffer(std::size_t capacity) : spans(capacity) {}
  std::vector<Span> spans;
  std::atomic<std::uint64_t> written{0};
};

struct Recorder {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::map<int, std::string> track_names;
  Config config;
  // Bumped by reset(); threads holding a buffer from an older epoch
  // re-register, so stale thread_local pointers never dangle.
  std::atomic<std::uint64_t> epoch{1};
};

Recorder& recorder() {
  static Recorder* r = new Recorder;  // leaked: emit may run during exit
  return *r;
}

thread_local ThreadBuffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_epoch = 0;

void atexit_export() {
  if (tracing_enabled() && span_count() > 0)
    write_chrome_trace(recorder().config.path);
}

// Runs configure_from_env() before main() so PPSTAP_TRACE=1 works for any
// binary without code changes.
struct EnvInit {
  EnvInit() { configure_from_env(); }
} env_init;

}  // namespace

void configure(const Config& config) {
  Recorder& r = recorder();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    r.config = config;
  }
  detail::g_enabled.store(config.enabled, std::memory_order_relaxed);
}

void configure_from_env() {
  // This runs from a static initializer (before main), where a thrown
  // Error would terminate the process — report a bad value and keep
  // tracing off instead.
  bool enabled = false;
  bool flight = false;
  std::optional<long long> capacity;
  try {
    enabled = parse_env_flag("PPSTAP_TRACE").value_or(false);
    flight = parse_env_flag("PPSTAP_FLIGHT_RECORDER").value_or(false);
    capacity = parse_env_int("PPSTAP_TRACE_CAPACITY");
    if (capacity && *capacity <= 0)
      throw Error("PPSTAP_TRACE_CAPACITY must be positive");
  } catch (const ppstap::Error& e) {
    std::fprintf(stderr, "ppstap: %s (tracing stays disabled)\n", e.what());
    return;
  }
  if (!enabled && !flight) return;
  Config c;
  c.enabled = true;
  c.flight_armed = flight;
  // Flight-recorder-only mode keeps a deliberately small always-on ring:
  // enough recent history to explain a fault, cheap enough to leave armed.
  if (flight && !enabled) c.capacity_per_thread = 4096;
  if (capacity) c.capacity_per_thread = static_cast<std::size_t>(*capacity);
  if (const char* path = std::getenv("PPSTAP_TRACE_FILE"))
    if (path[0] != '\0') c.path = path;
  if (const char* path = std::getenv("PPSTAP_FLIGHT_FILE"))
    if (path[0] != '\0') c.flight_path = path;
  configure(c);
  // The atexit full-trace export belongs to PPSTAP_TRACE; flight-recorder
  // mode only writes on explicit fault dumps.
  if (enabled) {
    static bool registered = false;
    if (!registered) {
      registered = true;
      std::atexit(atexit_export);
    }
  }
}

const Config& config() { return recorder().config; }

void emit(const Span& span) {
  if (!tracing_enabled()) return;
  Recorder& r = recorder();
  const std::uint64_t epoch = r.epoch.load(std::memory_order_acquire);
  if (tl_buffer == nullptr || tl_epoch != epoch) {
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(
        std::make_unique<ThreadBuffer>(r.config.capacity_per_thread));
    tl_buffer = r.buffers.back().get();
    tl_epoch = epoch;
  }
  const std::uint64_t n = tl_buffer->written.load(std::memory_order_relaxed);
  tl_buffer->spans[static_cast<size_t>(n % tl_buffer->spans.size())] = span;
  tl_buffer->written.store(n + 1, std::memory_order_release);
}

void set_track_name(int task, const std::string& name) {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  r.track_names[task] = name;
}

std::uint64_t span_count() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t total = 0;
  for (const auto& b : r.buffers) {
    const std::uint64_t written = b->written.load(std::memory_order_acquire);
    total += std::min<std::uint64_t>(written, b->spans.size());
  }
  return total;
}

std::uint64_t dropped_count() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t dropped = 0;
  for (const auto& b : r.buffers) {
    const std::uint64_t written = b->written.load(std::memory_order_acquire);
    if (written > b->spans.size()) dropped += written - b->spans.size();
  }
  return dropped;
}

std::vector<Span> snapshot() {
  Recorder& r = recorder();
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto& b : r.buffers) {
      const std::uint64_t written = b->written.load(std::memory_order_acquire);
      const std::uint64_t kept =
          std::min<std::uint64_t>(written, b->spans.size());
      for (std::uint64_t i = written - kept; i < written; ++i)
        out.push_back(b->spans[static_cast<size_t>(i % b->spans.size())]);
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.task != b.task) return a.task < b.task;
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.t_start < b.t_start;
  });
  return out;
}

namespace {

// Chrome trace pids must be non-negative; pipeline tasks keep their index,
// the pseudo-tracks get ids above any real task.
int pid_for(int task) { return task >= 0 ? task : 100 - task; }

}  // namespace

Json chrome_trace_json() {
  const std::vector<Span> spans = snapshot();
  std::map<int, std::string> names;
  {
    Recorder& r = recorder();
    std::lock_guard<std::mutex> lock(r.mu);
    names = r.track_names;
  }
  names.emplace(kSeqTrack, "sequential");
  names.emplace(kFlowTrack, "flow");
  names.emplace(kSourceTrack, "source");

  double t0 = 0.0;
  for (const Span& s : spans)
    if (t0 == 0.0 || s.t_start < t0) t0 = s.t_start;

  Json events = Json::array();
  std::map<int, bool> named;
  for (const Span& s : spans) {
    if (!named[s.task]) {
      named[s.task] = true;
      const auto it = names.find(s.task);
      Json meta = Json::object();
      meta["name"] = "process_name";
      meta["ph"] = "M";
      meta["pid"] = pid_for(s.task);
      Json margs = Json::object();
      margs["name"] =
          it != names.end() ? it->second : "task" + std::to_string(s.task);
      meta["args"] = std::move(margs);
      events.push_back(std::move(meta));
    }
    Json e = Json::object();
    e["name"] = s.name;
    e["cat"] = s.category;
    e["ph"] = "X";
    e["ts"] = (s.t_start - t0) * 1e6;          // microseconds
    e["dur"] = (s.t_end - s.t_start) * 1e6;
    e["pid"] = pid_for(s.task);
    e["tid"] = s.rank;
    Json args = Json::object();
    args["rank"] = s.rank;
    if (s.cpi >= 0) args["cpi"] = static_cast<double>(s.cpi);
    if (s.bytes >= 0) args["bytes"] = static_cast<double>(s.bytes);
    if (s.items >= 0) args["items"] = static_cast<double>(s.items);
    if (s.src_rank >= 0) args["src_rank"] = s.src_rank;
    if (s.src_task >= 0) args["src_task"] = s.src_task;
    if (s.edge >= 0) args["edge"] = s.edge;
    if (s.hop >= 0) args["hop"] = s.hop;
    if (s.queue_s > 0.0) args["queue_us"] = s.queue_s * 1e6;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }

  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  Json other = Json::object();
  other["generator"] = "ppstap obs";
  other["clock"] = "steady_clock (WallTimer)";
  other["dropped_spans"] = dropped_count();
  // Kernel dispatch provenance: traces from the same binary on different
  // hosts (or PPSTAP_SIMD settings) are not comparable span-for-span.
  const kernels::SimdInfo si = kernels::simd_info();
  other["simd_level"] = si.level_name;
  other["simd_source"] = si.source;
  other["simd_lane_floats"] = static_cast<double>(si.lane_floats);
  doc["otherData"] = std::move(other);
  return doc;
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  os << chrome_trace_json().dump(1) << "\n";
  return os.good();
}

void flight_dump(const char* reason) {
  std::string path;
  {
    Recorder& r = recorder();
    std::lock_guard<std::mutex> lock(r.mu);
    if (!r.config.flight_armed) return;
    path = r.config.flight_path;
  }
  Json doc = chrome_trace_json();
  doc["otherData"]["flight_reason"] = reason;
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "ppstap: flight dump to %s failed\n", path.c_str());
    return;
  }
  os << doc.dump(1) << "\n";
  std::fprintf(stderr, "ppstap: flight recorder dumped %s (reason: %s)\n",
               path.c_str(), reason);
}

void reset() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  r.buffers.clear();
  r.epoch.fetch_add(1, std::memory_order_acq_rel);
}

ScopedSpan::ScopedSpan(const char* name, const char* category, int rank,
                       int task, std::int64_t cpi)
    : active_(tracing_enabled()) {
  if (!active_) return;
  span_.name = name;
  span_.category = category;
  span_.rank = rank;
  span_.task = task;
  span_.cpi = cpi;
  span_.t_start = WallTimer::now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.t_end = WallTimer::now();
  emit(span_);
}

}  // namespace ppstap::obs

#endif  // PPSTAP_ENABLE_TRACING
