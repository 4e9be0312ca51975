// Trace-span recorder: the reproduction's answer to the paper's per-phase
// MPI_Wtime() instrumentation (Fig. 10), kept rather than flattened.
//
// Every rank of the parallel pipeline emits one span per Figure-10 phase
// per CPI ({recv, comp, send} x task x rank x CPI); the sequential
// reference chain emits spans too. Spans accumulate in
// lock-free per-thread ring buffers — the hot path is one relaxed atomic
// load when tracing is disabled, and one slot write plus a release store
// when enabled; no allocation, no locks (a mutex is taken only the first
// time a thread registers its buffer).
//
// The exporter writes Chrome trace-event JSON ("X" complete events) that
// loads directly in chrome://tracing or https://ui.perfetto.dev, with one
// process group per pipeline task and one thread row per rank, so a full
// 25-CPI staggered run is visually inspectable.
//
// Runtime control: PPSTAP_TRACE=1 enables recording for any binary and
// installs an atexit exporter writing PPSTAP_TRACE_FILE (default
// "ppstap_trace.json"); programs can instead call obs::configure().
// Compile-time control: building with -DPPSTAP_ENABLE_TRACING=OFF turns
// every function in this header into an empty inline stub.
//
// All span timestamps use WallTimer::now() — a single steady_clock
// monotonic base shared with the pipeline's phase timing.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

#ifndef PPSTAP_ENABLE_TRACING
#define PPSTAP_ENABLE_TRACING 1
#endif

namespace ppstap::obs {

/// One completed span. `name` and `category` must be pointers to
/// static-storage strings (the recorder stores the pointers, not copies —
/// that is what keeps the hot path allocation-free).
struct Span {
  const char* name = "";      ///< e.g. "recv", "comp", "send", "broadcast"
  const char* category = "";  ///< e.g. "pipeline", "flow", "sequential"
  int rank = 0;               ///< global rank (trace thread row)
  int task = -1;              ///< stap::Task index, or a pseudo-track below
  std::int64_t cpi = -1;      ///< CPI index, -1 when not CPI-scoped
  double t_start = 0.0;       ///< WallTimer::now() seconds
  double t_end = 0.0;
  std::int64_t bytes = -1;    ///< payload bytes, -1 when absent
  std::int64_t items = -1;    ///< participants / element count, -1 absent
  // Causal flow fields, set on "xfer" spans (category "flow") stitched from
  // the FlowContext piggybacked on redistribution frames; -1 when absent.
  std::int32_t src_rank = -1;  ///< producing rank
  std::int32_t src_task = -1;  ///< producing task (stap::Task index)
  std::int32_t edge = -1;      ///< redistribution edge id (core::Edge)
  std::int32_t hop = -1;       ///< hop sequence number along the pipeline
  /// Seconds the frame sat delivered-but-unconsumed in the receiver's
  /// mailbox (consumer busy); t_end - t_start - queue_s is pure transport.
  double queue_s = 0.0;
};

/// Pseudo-task ids for spans not owned by one of the seven pipeline tasks;
/// they map to their own process groups in the exported trace.
inline constexpr int kSeqTrack = -2;
/// Fault events: injected faults, shed CPIs, spare-rank recoveries.
inline constexpr int kFaultTrack = -3;
/// Integrity events: ABFT invariant failures, recomputes, repairs,
/// escalations, digest mismatches.
inline constexpr int kIntegrityTrack = -4;
/// Causal flow spans: one "xfer" per delivered redistribution frame,
/// carrying the FlowContext the sender piggybacked on it.
inline constexpr int kFlowTrack = -5;
/// The radar front end: one "generate" span (category "source") per CPI,
/// from its admission to the published input cube.
inline constexpr int kSourceTrack = -6;

struct Config {
  bool enabled = false;
  /// Destination of the atexit export when enabled via environment.
  std::string path = "ppstap_trace.json";
  /// Span slots per thread ring buffer; the oldest spans are overwritten
  /// (and counted as dropped) when a thread exceeds this. Overridable via
  /// PPSTAP_TRACE_CAPACITY.
  std::size_t capacity_per_thread = 1 << 14;
  /// Flight-recorder mode: when armed, fault paths (world abort, spare
  /// failover, integrity escalation, elastic migration rollback) dump the
  /// span ring to `flight_path` via flight_dump(). Enabled via
  /// PPSTAP_FLIGHT_RECORDER=1, which also turns recording on with a
  /// smaller bounded ring.
  bool flight_armed = false;
  std::string flight_path = "ppstap_flight.json";
};

#if PPSTAP_ENABLE_TRACING

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when span recording is on. A single relaxed atomic load — this is
/// the entire cost of the disabled path.
inline bool tracing_enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Install a configuration (clears nothing; toggles recording and sets the
/// export path/capacity for buffers registered afterwards).
void configure(const Config& config);

/// Read PPSTAP_TRACE / PPSTAP_TRACE_FILE. Called automatically at program
/// start; when PPSTAP_TRACE is truthy an atexit Chrome-trace export to
/// PPSTAP_TRACE_FILE is installed.
void configure_from_env();

const Config& config();

/// Append a span to the calling thread's ring buffer. No-op when disabled.
void emit(const Span& span);

/// Name a task/track id for the exporter's process labels (e.g. task 0 ->
/// "doppler_filter"). Safe to call repeatedly.
void set_track_name(int task, const std::string& name);

/// Total spans currently held (across all thread buffers).
std::uint64_t span_count();
/// Spans lost to ring-buffer wrap since the last reset().
std::uint64_t dropped_count();

/// Copy out all recorded spans, ordered by (task, rank, t_start). Call
/// after the emitting threads have quiesced (e.g. after World::run joins).
std::vector<Span> snapshot();

/// The Chrome trace-event document for the current spans. Timestamps are
/// rebased so the earliest span starts at ts=0.
Json chrome_trace_json();

/// Serialize chrome_trace_json() to `path`. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// Flight-recorder dump: when config().flight_armed, write the current
/// span ring to config().flight_path with `reason` recorded in otherData.
/// No-op when not armed; safe to call from fault paths repeatedly (the
/// file is overwritten, so it always holds the most recent pre-fault ring).
void flight_dump(const char* reason);

/// Drop all recorded spans and detach every thread's buffer (threads
/// re-register on their next emit).
void reset();

/// RAII span: captures t_start at construction, emits at destruction.
/// Does nothing (and reads no clock) when tracing is disabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category, int rank, int task = -1,
             std::int64_t cpi = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_bytes(std::int64_t b) { span_.bytes = b; }
  void set_items(std::int64_t n) { span_.items = n; }

 private:
  Span span_;
  bool active_;
};

#else  // !PPSTAP_ENABLE_TRACING — every entry point compiles to nothing.

inline bool tracing_enabled() { return false; }
inline void configure(const Config&) {}
inline void configure_from_env() {}
inline const Config& config() {
  static const Config c;
  return c;
}
inline void emit(const Span&) {}
inline void set_track_name(int, const std::string&) {}
inline std::uint64_t span_count() { return 0; }
inline std::uint64_t dropped_count() { return 0; }
inline std::vector<Span> snapshot() { return {}; }
inline Json chrome_trace_json() { return Json::object(); }
inline bool write_chrome_trace(const std::string&) { return false; }
inline void flight_dump(const char*) {}
inline void reset() {}

class ScopedSpan {
 public:
  ScopedSpan(const char*, const char*, int, int = -1, std::int64_t = -1) {}
  void set_bytes(std::int64_t) {}
  void set_items(std::int64_t) {}
};

#endif  // PPSTAP_ENABLE_TRACING

}  // namespace ppstap::obs
