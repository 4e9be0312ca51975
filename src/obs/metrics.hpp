// Metrics primitives for the observability layer: counters, gauges, and
// fixed-bucket histograms with quantile extraction.
//
// The pipeline's original instrumentation flattened everything into means
// (TaskTiming averages over ranks and CPIs). These types keep enough shape
// to answer the questions the paper's evaluation asks — tail latency
// (p50/p95/p99 per CPI), per-link communication volume, per-task queue
// wait — while staying cheap enough to update from the Figure-10 hot loop:
// every update is a relaxed atomic, so concurrent ranks never serialize on
// a metrics lock.
//
// Histograms use fixed bucket bounds chosen at construction (exponential
// bounds are provided for latency-like quantities). Quantiles are
// extracted by linear interpolation inside the target bucket and clamped
// to the observed min/max, so a quantile is always within one bucket of
// the exact order statistic.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace ppstap::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins floating point metric.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  /// Raise to `v` when it exceeds the current value (a running maximum).
  void raise(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations in
/// (bounds[i-1], bounds[i]]; a final overflow bucket catches values above
/// the last bound. Thread-safe for concurrent observe().
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Strictly increasing bounds from `lo` to at least `hi`, multiplying by
  /// `growth` per bucket (growth > 1). The standard latency bucketing.
  static std::vector<double> exponential_bounds(double lo, double hi,
                                                double growth = 1.5);

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  ///< +inf when empty
  double max() const;  ///< -inf when empty

  /// Quantile estimate for q in [0, 1]; 0 when empty. Linear interpolation
  /// inside the selected bucket, clamped to observed min/max.
  double quantile(double q) const;

  /// Index of the bucket `v` falls into (0 .. bounds.size(), the last being
  /// the overflow bucket) — used by tests asserting +-1-bucket agreement.
  std::size_t bucket_index(double v) const;

  struct Snapshot {
    std::vector<double> bounds;         ///< upper bounds, ascending
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  Snapshot snapshot() const;

  Json to_json() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_bits_;
  std::atomic<double> max_bits_;
};

/// Named metric registry. Lookup/creation takes a mutex; the returned
/// references are stable for the registry's lifetime, so hot paths resolve
/// a metric once and update it lock-free afterwards.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is used only when `name` is first created.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}
  Json to_json() const;

  void clear();

  /// Process-wide registry (pipeline runs publish their metrics here).
  static Registry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ppstap::obs
