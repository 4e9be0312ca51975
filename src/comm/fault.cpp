#include "comm/fault.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace ppstap::comm {

namespace {

// SplitMix64 finalizer — the deterministic coin behind probability rules.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double hash01(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t h = mix64(mix64(seed ^ a) ^ b);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t pack(int src, int dest, int tag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 48) ^
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dest))
          << 32) ^
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
}

bool matches(const FaultRule& r, int src, int dest, int tag) {
  if (r.src >= 0 && r.src != src) return false;
  if (r.dest >= 0 && r.dest != dest) return false;
  if (r.tag >= 0 && r.tag != tag) return false;
  if (r.tag_period > 0 && tag % r.tag_period != r.tag_phase) return false;
  return true;
}

}  // namespace

FaultPlan& FaultPlan::add(const FaultRule& rule) {
  PPSTAP_REQUIRE(rule.probability >= 0.0 && rule.probability <= 1.0,
                 "fault rule probability must be in [0, 1]");
  PPSTAP_REQUIRE(rule.delay_seconds >= 0.0,
                 "fault rule delay must be non-negative");
  if (rule.type == FaultType::kSlow)
    PPSTAP_REQUIRE(rule.factor >= 1.0, "slow rule factor must be >= 1");
  if (rule.type == FaultType::kJitter)
    PPSTAP_REQUIRE(rule.shape > 0.0 && rule.max_delay_seconds >= 0.0,
                   "jitter rule needs shape > 0 and a non-negative cap");
  std::lock_guard<std::mutex> lock(mu_);
  rules_.push_back(rule);
  applications_.push_back(0);
  match_counter_.push_back(0);
  return *this;
}

FaultPlan& FaultPlan::add_compute(const ComputeFaultRule& rule) {
  PPSTAP_REQUIRE(rule.probability >= 0.0 && rule.probability <= 1.0,
                 "compute fault rule probability must be in [0, 1]");
  PPSTAP_REQUIRE(rule.bit >= 0 && rule.bit < 32,
                 "compute fault rule bit must be in [0, 32)");
  std::lock_guard<std::mutex> lock(mu_);
  compute_rules_.push_back(rule);
  compute_applications_.push_back(0);
  compute_match_counter_.push_back(0);
  return *this;
}

FaultRule FaultPlan::delay_edge(int edge, int tag_stride, double seconds,
                                double probability) {
  FaultRule r;
  r.type = FaultType::kDelay;
  r.tag_period = tag_stride;
  r.tag_phase = edge;
  r.delay_seconds = seconds;
  r.probability = probability;
  return r;
}

FaultRule FaultPlan::delay_message(int src, int dest, int tag,
                                   double seconds) {
  FaultRule r;
  r.type = FaultType::kDelay;
  r.src = src;
  r.dest = dest;
  r.tag = tag;
  r.delay_seconds = seconds;
  return r;
}

FaultRule FaultPlan::drop_message(int src, int dest, int tag) {
  FaultRule r;
  r.type = FaultType::kDrop;
  r.src = src;
  r.dest = dest;
  r.tag = tag;
  return r;
}

FaultRule FaultPlan::corrupt_message(int src, int dest, int tag,
                                     int max_applications) {
  FaultRule r;
  r.type = FaultType::kCorrupt;
  r.src = src;
  r.dest = dest;
  r.tag = tag;
  r.max_applications = max_applications;
  return r;
}

FaultRule FaultPlan::kill_on_recv(int rank, int tag) {
  FaultRule r;
  r.type = FaultType::kKill;
  r.point = FaultPoint::kRecv;
  r.dest = rank;
  r.tag = tag;
  r.max_applications = 1;
  return r;
}

FaultRule FaultPlan::kill_on_send(int rank, int tag) {
  FaultRule r;
  r.type = FaultType::kKill;
  r.point = FaultPoint::kSend;
  r.src = rank;
  r.tag = tag;
  r.max_applications = 1;
  return r;
}

FaultRule FaultPlan::slow_rank(int rank, double factor, double probability) {
  FaultRule r;
  r.type = FaultType::kSlow;
  r.src = rank;
  r.factor = factor;
  r.probability = probability;
  return r;
}

FaultRule FaultPlan::jitter_edge(int edge, int tag_stride, double scale,
                                 double shape, double cap,
                                 double probability) {
  FaultRule r;
  r.type = FaultType::kJitter;
  r.tag_period = tag_stride;
  r.tag_phase = edge;
  r.delay_seconds = scale;
  r.shape = shape;
  r.max_delay_seconds = cap;
  r.probability = probability;
  return r;
}

FaultRule FaultPlan::duplicate_edge(int edge, int tag_stride,
                                    double probability, double extra_delay) {
  FaultRule r;
  r.type = FaultType::kDuplicate;
  r.tag_period = tag_stride;
  r.tag_phase = edge;
  r.probability = probability;
  r.delay_seconds = extra_delay;
  return r;
}

FaultRule FaultPlan::duplicate_message(int src, int dest, int tag) {
  FaultRule r;
  r.type = FaultType::kDuplicate;
  r.src = src;
  r.dest = dest;
  r.tag = tag;
  r.max_applications = 1;
  return r;
}

ComputeFaultRule FaultPlan::flip_stage(int task, long long cpi, int bit,
                                       int max_applications) {
  ComputeFaultRule r;
  r.task = task;
  r.cpi = cpi;
  r.bit = bit;
  r.max_applications = max_applications;
  return r;
}

bool FaultPlan::compute_flip_due(int task, long long cpi, int rank,
                                 int attempt, int* bit) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < compute_rules_.size(); ++i) {
    const ComputeFaultRule& r = compute_rules_[i];
    if (r.task >= 0 && r.task != task) continue;
    if (r.cpi >= 0 && r.cpi != cpi) continue;
    if (r.rank >= 0 && r.rank != rank) continue;
    if (r.max_applications >= 0 &&
        compute_applications_[i] >= r.max_applications)
      continue;
    const std::uint64_t occurrence = compute_match_counter_[i]++;
    if (r.probability < 1.0) {
      const std::uint64_t where =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(task))
           << 40) ^
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank))
           << 20) ^
          static_cast<std::uint64_t>(cpi) ^
          (static_cast<std::uint64_t>(attempt) << 56);
      const double u = hash01(seed_ + 0xc0ull + i, where, occurrence);
      if (u >= r.probability) continue;
    }
    ++compute_applications_[i];
    ++stats_.flips;
    if (bit != nullptr) *bit = r.bit;
    return true;
  }
  return false;
}

bool FaultPlan::rule_applies(std::size_t idx, const FaultRule& r, int src,
                             int dest, int tag, std::uint64_t salt) {
  // Caller holds mu_.
  if (!matches(r, src, dest, tag)) return false;
  if (r.max_applications >= 0 && applications_[idx] >= r.max_applications)
    return false;
  const std::uint64_t occurrence = match_counter_[idx]++;
  if (r.probability < 1.0) {
    const double u = hash01(seed_ + idx, pack(src, dest, tag) ^ salt,
                            occurrence);
    if (u >= r.probability) return false;
  }
  ++applications_[idx];
  return true;
}

bool FaultPlan::kill_due(FaultPoint point, int src, int dest, int tag) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& r = rules_[i];
    if (r.type != FaultType::kKill || r.point != point) continue;
    if (rule_applies(i, r, src, dest, tag, /*salt=*/0)) {
      ++stats_.kills;
      return true;
    }
  }
  return false;
}

bool FaultPlan::drop_due(int src, int dest, int tag, std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& r = rules_[i];
    if (r.type != FaultType::kDrop) continue;
    if (rule_applies(i, r, src, dest, tag, seq)) {
      ++stats_.dropped;
      return true;
    }
  }
  return false;
}

double FaultPlan::delay_due(int src, int dest, int tag, std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& r = rules_[i];
    if (r.type == FaultType::kDelay) {
      if (rule_applies(i, r, src, dest, tag, seq)) {
        ++stats_.delayed;
        total += r.delay_seconds;
      }
    } else if (r.type == FaultType::kJitter) {
      if (rule_applies(i, r, src, dest, tag, seq)) {
        ++stats_.jittered;
        // Bounded Pareto: u -> scale * (u^{-1/shape} - 1). The sample uses
        // its own hash stream (distinct constant) so it never aliases the
        // probability coin drawn inside rule_applies.
        const double u = std::max(
            hash01(seed_ ^ 0x71c3a5b9ull, seed_ + i,
                   pack(src, dest, tag) ^ seq),
            0x1.0p-53);
        const double d =
            r.delay_seconds * (std::pow(u, -1.0 / r.shape) - 1.0);
        total += std::min(d, r.max_delay_seconds);
      }
    }
  }
  return total;
}

double FaultPlan::slow_factor_due(int rank, long long cpi) {
  std::lock_guard<std::mutex> lock(mu_);
  double factor = 1.0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& r = rules_[i];
    if (r.type != FaultType::kSlow) continue;
    if (r.src >= 0 && r.src != rank) continue;
    if (r.max_applications >= 0 && applications_[i] >= r.max_applications)
      continue;
    if (r.probability < 1.0) {
      // Keyed on (rank, cpi) only — every stage of a CPI on this rank is
      // slowed or spared together, and the answer never depends on the
      // order rank threads happen to ask in.
      const double u = hash01(seed_ + 0x51ull + i,
                              pack(rank, 0, 0),
                              static_cast<std::uint64_t>(cpi));
      if (u >= r.probability) continue;
    }
    ++applications_[i];
    ++stats_.slowed;
    factor *= r.factor;
  }
  return factor;
}

bool FaultPlan::duplicate_due(int src, int dest, int tag, std::uint64_t seq,
                              double* extra_delay) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& r = rules_[i];
    if (r.type != FaultType::kDuplicate) continue;
    if (rule_applies(i, r, src, dest, tag, seq)) {
      ++stats_.duplicated;
      if (extra_delay != nullptr) *extra_delay = r.delay_seconds;
      return true;
    }
  }
  return false;
}

bool FaultPlan::corrupt_due(int src, int dest, int tag, std::uint64_t seq,
                            int attempt) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& r = rules_[i];
    if (r.type != FaultType::kCorrupt) continue;
    if (rule_applies(i, r, src, dest, tag,
                     seq ^ (static_cast<std::uint64_t>(attempt) << 56))) {
      ++stats_.corrupted;
      return true;
    }
  }
  return false;
}

FaultStats FaultPlan::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void FaultPlan::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = FaultStats{};
  std::fill(applications_.begin(), applications_.end(), 0);
  std::fill(match_counter_.begin(), match_counter_.end(), 0);
  std::fill(compute_applications_.begin(), compute_applications_.end(), 0);
  std::fill(compute_match_counter_.begin(), compute_match_counter_.end(), 0);
}

}  // namespace ppstap::comm
