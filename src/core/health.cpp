#include "core/health.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/env.hpp"

namespace ppstap::core {

HealthConfig HealthConfig::from_env() {
  HealthConfig cfg;
  if (const auto v = parse_env_flag("PPSTAP_HEALTH")) cfg.enabled = *v;
  if (const auto v = parse_env_double("PPSTAP_HEALTH_ZSCORE", 0.5, 1e3))
    cfg.zscore = *v;
  if (const auto v = parse_env_int("PPSTAP_HEALTH_DWELL", 1, 1000000))
    cfg.dwell = static_cast<int>(*v);
  if (const auto v = parse_env_flag("PPSTAP_HEALTH_QUARANTINE"))
    cfg.quarantine = *v;
  if (const auto v = parse_env_double("PPSTAP_HEALTH_MIN_SERVICE", 0.0, 1e3))
    cfg.min_service = *v;
  cfg.validate();
  return cfg;
}

void HealthConfig::validate() const {
  PPSTAP_REQUIRE(zscore > 0.0, "health zscore threshold must be positive");
  PPSTAP_REQUIRE(dwell >= 1, "health dwell must be at least one scan");
  PPSTAP_REQUIRE(alpha > 0.0 && alpha <= 1.0,
                 "health EWMA alpha must be in (0, 1]");
  PPSTAP_REQUIRE(min_ratio >= 1.0, "health min_ratio must be >= 1");
  PPSTAP_REQUIRE(min_samples >= 1, "health min_samples must be >= 1");
  PPSTAP_REQUIRE(flap_limit >= 0, "health flap_limit must be >= 0");
  PPSTAP_REQUIRE(min_gain >= 0.0 && min_gain < 1.0,
                 "health min_gain must be in [0, 1)");
  PPSTAP_REQUIRE(min_service >= 0.0, "health min_service must be >= 0");
}

HealthMonitor::HealthMonitor(const HealthConfig& cfg, int n_ranks,
                             EventLog& log)
    : cfg_(cfg),
      log_(log),
      state_(static_cast<size_t>(n_ranks)),
      quarantine_flag_(static_cast<size_t>(n_ranks)),
      revived_(static_cast<size_t>(n_ranks)) {
  cfg_.validate();
  PPSTAP_REQUIRE(n_ranks >= 1, "health monitor needs at least one rank");
}

void HealthMonitor::observe(int rank, int task, long long cpi,
                            double service_s, double queue_s) {
  (void)cpi;
  if (!cfg_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  RankState& s = state_[static_cast<size_t>(rank)];
  if (s.quarantined) return;
  s.task = task;
  if (s.samples == 0) {
    s.ewma_service = service_s;
    s.ewma_queue = queue_s;
  } else {
    s.ewma_service += cfg_.alpha * (service_s - s.ewma_service);
    s.ewma_queue += cfg_.alpha * (queue_s - s.ewma_queue);
  }
  s.recent[static_cast<size_t>(s.recent_idx)] = service_s;
  s.recent_idx = (s.recent_idx + 1) % kFloorWindow;
  s.recent_n = std::min(s.recent_n + 1, kFloorWindow);
  ++s.samples;
}

double HealthMonitor::floor_of(const RankState& s) {
  double lo = 0.0;
  for (int i = 0; i < s.recent_n; ++i) {
    const double v = s.recent[static_cast<size_t>(i)];
    lo = i == 0 ? v : std::min(lo, v);
  }
  return lo;
}

double HealthMonitor::group_period(const HealthGroup& g) const {
  // A task group's per-CPI period estimate is its slowest member: the
  // members split one CPI's work, so the laggard paces the group (eq. 1).
  // Floors, not EWMAs — the prediction must not chase preemption noise.
  double period = 0.0;
  for (int r : g.ranks) {
    const RankState& s = state_[static_cast<size_t>(r)];
    if (s.samples >= cfg_.min_samples)
      period = std::max(period, floor_of(s));
  }
  return period;
}

bool HealthMonitor::do_no_harm_ok(const std::vector<HealthGroup>& groups,
                                  const HealthGroup& group, int rank,
                                  const std::vector<double>& healthy,
                                  bool spare_available,
                                  bool shrink_available) const {
  if (!spare_available && !shrink_available)
    return false;  // eviction would be an uncovered death
  // Eq.-1 prediction from the same intrinsic estimates the critical-path
  // analyzer reports: current period = slowest group; post-eviction the
  // straggler's group runs at its healthy peers' pace (spare takeover) or
  // at the peers' mean stretched by the survivors sharing the evictee's
  // partition (shrink). Evict only when the pipeline period shrinks by at
  // least min_gain — e.g. a straggler in a non-gating group with slack is
  // left alone.
  if (healthy.empty()) return false;  // nobody left to carry the work
  if (!spare_available && group.ranks.size() < 2) return false;
  double current = 0.0;
  double others = 0.0;
  for (const HealthGroup& g : groups) {
    const double p = group_period(g);
    current = std::max(current, p);
    if (g.task != group.task) others = std::max(others, p);
  }
  if (current <= 0.0) return false;
  double healed = 0.0;
  double mean = 0.0;
  for (double h : healthy) {
    healed = std::max(healed, h);
    mean += h;
  }
  mean /= static_cast<double>(healthy.size());
  if (!spare_available) {
    const auto n = static_cast<double>(group.ranks.size());
    healed = std::max(healed, mean * n / (n - 1.0));
  }
  (void)rank;
  const double post = std::max(others, healed);
  return post < (1.0 - cfg_.min_gain) * current;
}

void HealthMonitor::scan(long long cpi,
                         const std::vector<HealthGroup>& groups,
                         bool spare_available, bool shrink_available) {
  if (!cfg_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (const HealthGroup& g : groups) {
    // Leave-one-out peer statistics per member.
    std::vector<int> scored;
    for (int r : g.ranks) {
      const RankState& s = state_[static_cast<size_t>(r)];
      if (!s.quarantined && s.samples >= cfg_.min_samples)
        scored.push_back(r);
    }
    if (scored.size() < 2) continue;  // a singleton has no peers
    for (int r : scored) {
      RankState& s = state_[static_cast<size_t>(r)];
      const double mine = floor_of(s);
      std::vector<double> peers;
      peers.reserve(scored.size() - 1);
      for (int p : scored)
        if (p != r) peers.push_back(floor_of(state_[static_cast<size_t>(p)]));
      double mean = 0.0;
      for (double v : peers) mean += v;
      mean /= static_cast<double>(peers.size());
      double var = 0.0;
      for (double v : peers) var += (v - mean) * (v - mean);
      var /= static_cast<double>(peers.size());
      // Relative std floor: with near-uniform peers the raw std collapses
      // and any epsilon would z-score to infinity.
      const double sd = std::max({std::sqrt(var), 0.1 * mean, 1e-12});
      const double z = (mine - mean) / sd;
      s.last_zscore = z;

      // Double gate on top of the floor z-score: the peer-relative ratio,
      // and the absolute min_service floor under which a group lives in
      // scheduler-noise territory and is never scored against itself.
      const bool straggler = z > cfg_.zscore &&
                             mine > cfg_.min_ratio * mean &&
                             mine > cfg_.min_service;
      if (straggler) {
        ++s.strikes;
        if (!s.suspect) {
          s.suspect = true;
          verdict(EventKind::kSuspect, r, s, cpi, z);
        }
        if (s.strikes < cfg_.dwell) continue;
        // Confirmed. Flap budget first, then the do-no-harm prediction.
        if (!cfg_.quarantine) continue;
        if (s.quarantine_count >= cfg_.flap_limit) {
          verdict(EventKind::kFlapSuppressed, r, s, cpi, z);
          s.strikes = 0;
          continue;
        }
        if (!do_no_harm_ok(groups, g, r, peers, spare_available,
                           shrink_available)) {
          verdict(EventKind::kVetoed, r, s, cpi, z);
          s.strikes = 0;
          continue;
        }
        s.quarantined = true;
        ++s.quarantine_count;
        verdict(EventKind::kQuarantine, r, s, cpi, z);
        quarantine_flag_[static_cast<size_t>(r)].store(
            true, std::memory_order_release);
      } else if (s.strikes > 0 && z < 0.5 * cfg_.zscore) {
        // Hysteresis: strikes only clear well below the threshold, so a
        // rank flickering around it neither escalates nor resets per tick.
        s.strikes = 0;
        s.suspect = false;
        verdict(EventKind::kClear, r, s, cpi, z);
      }
    }
  }
}

bool HealthMonitor::was_quarantined(int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_[static_cast<size_t>(rank)].quarantine_count > 0;
}

void HealthMonitor::on_revived(int rank) {
  const auto i = static_cast<size_t>(rank);
  std::lock_guard<std::mutex> lock(mu_);
  quarantine_flag_[i].store(false, std::memory_order_release);
  revived_[i].store(true, std::memory_order_release);
  RankState& s = state_[i];
  const int keep_count = s.quarantine_count;
  const int keep_task = s.task;
  s = RankState{};
  s.quarantine_count = keep_count;  // the flap budget survives revival
  s.task = keep_task;
}

void HealthMonitor::verdict(EventKind kind, int rank, const RankState& s,
                            long long cpi, double z) const {
  Event e{kind, 0.0, rank, s.task, static_cast<index_t>(cpi)};
  e.seconds = z;
  log_.record(e);
}

void HealthMonitor::record_ranks() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < state_.size(); ++i) {
    const RankState& s = state_[i];
    if (s.samples == 0) continue;
    Event e{EventKind::kRankHealth, 0.0, static_cast<int>(i), s.task};
    e.count = static_cast<std::uint64_t>(s.samples);
    e.seconds = floor_of(s);
    log_.record(e);
  }
}

}  // namespace ppstap::core
