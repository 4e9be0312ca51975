#include "core/overload.hpp"

#include <chrono>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/timer.hpp"

namespace ppstap::core {

const char* degradation_level_name(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kFull:
      return "full";
    case DegradationLevel::kReducedBeams:
      return "reduced-beams";
    case DegradationLevel::kFrozenHard:
      return "frozen-hard";
    case DegradationLevel::kStaleWeights:
      return "stale-weights";
    case DegradationLevel::kShedInput:
      return "shed-input";
  }
  return "?";
}

OverloadConfig OverloadConfig::from_env() {
  OverloadConfig cfg;
  if (auto f = parse_env_flag("PPSTAP_OVERLOAD")) cfg.enabled = *f;
  if (auto f = parse_env_flag("PPSTAP_OVERLOAD_LADDER")) cfg.ladder = *f;
  if (auto v = parse_env_int("PPSTAP_OVERLOAD_QLO", 1, 1'000'000))
    cfg.queue_low = static_cast<index_t>(*v);
  if (auto v = parse_env_int("PPSTAP_OVERLOAD_QHI", 1, 1'000'000))
    cfg.queue_high = static_cast<index_t>(*v);
  if (auto v = parse_env_double("PPSTAP_OVERLOAD_SLO", 0.0, 1e6))
    cfg.slo_latency_seconds = *v;
  if (auto v = parse_env_int("PPSTAP_OVERLOAD_DWELL", 1, 1'000'000))
    cfg.dwell = static_cast<int>(*v);
  if (auto v = parse_env_double("PPSTAP_OVERLOAD_PERIOD", 0.0, 1e6))
    cfg.arrival_period_seconds = *v;
  if (auto c = parse_env_choice("PPSTAP_OVERLOAD_ADMIT",
                                {"throttle", "reject"}))
    cfg.reject_when_full = (*c == 1);
  if (auto v = parse_env_double("PPSTAP_OVERLOAD_COND", 0.0, 1e15))
    cfg.condition_threshold = *v;
  if (cfg.enabled) cfg.validate();
  return cfg;
}

void OverloadConfig::validate() const {
  PPSTAP_REQUIRE(queue_low >= 1 && queue_high >= queue_low,
                 "overload queue thresholds need 1 <= low <= high");
  PPSTAP_REQUIRE(dwell >= 1, "overload dwell must be >= 1");
  PPSTAP_REQUIRE(slo_latency_seconds >= 0.0 && arrival_period_seconds >= 0.0,
                 "overload timing knobs must be nonnegative");
  PPSTAP_REQUIRE(condition_threshold == 0.0 || condition_threshold > 1.0,
                 "overload condition threshold must be 0 (keep) or > 1");
}

OverloadController::OverloadController(const OverloadConfig& cfg,
                                       index_t num_cpis, EventLog& log)
    : cfg_(cfg), log_(log) {
  cfg_.validate();
  PPSTAP_REQUIRE(num_cpis >= 0, "negative CPI count");
  memo_ = std::vector<std::atomic<std::int8_t>>(static_cast<size_t>(num_cpis));
  for (auto& m : memo_) m.store(-1, std::memory_order_relaxed);
  was_admitted_.assign(static_cast<size_t>(num_cpis), std::uint8_t{0});
  decided_at_.assign(static_cast<size_t>(num_cpis), 0.0);
  done_early_.assign(static_cast<size_t>(num_cpis), std::uint8_t{0});
  latencies_.reserve(kLatencyWindow);
}

bool OverloadController::slo_violated_locked() const {
  if (cfg_.slo_latency_seconds <= 0.0 || latencies_.empty()) return false;
  std::vector<double> window = latencies_;
  const size_t idx = (window.size() * 95) / 100;
  const size_t nth = idx < window.size() ? idx : window.size() - 1;
  std::nth_element(window.begin(),
                   window.begin() + static_cast<std::ptrdiff_t>(nth),
                   window.end());
  return window[nth] > cfg_.slo_latency_seconds;
}

void OverloadController::step_ladder_locked() {
  // Proportional target: the backlog band (queue_low, queue_high) maps
  // evenly onto the producing degraded rungs 1..3. A pure "escalate while
  // unhealthy" integrator overshoots — arrivals outpace the backlog's
  // response, so it climbs to the shed rung before a cheaper rung has had
  // a chance to drain the queue. The shed rung is therefore reached only
  // through the queue_high admission bound or sustained SLO violation.
  //
  // The level walks one rung per admission toward the target: up
  // immediately (overload must be answered now), down only after `dwell`
  // consecutive admissions that wanted a lower level (hysteresis, so the
  // rung does not chatter around a band edge).
  const index_t backlog = backlog_locked();
  int target = 0;
  if (backlog > cfg_.queue_low) {
    const double band = static_cast<double>(cfg_.queue_high - cfg_.queue_low);
    const double frac =
        band > 0.0
            ? static_cast<double>(backlog - cfg_.queue_low) / band
            : 1.0;
    const int producing = kNumDegradationLevels - 2;  // rungs 1..3
    target =
        1 + std::min(producing - 1, static_cast<int>(frac * producing));
  }
  if (slo_violated_locked()) target = std::max(target, level_ + 1);
  target = std::min(target, kNumDegradationLevels - 1);
  if (target > level_) {
    // Elastic-assist rung (PR 7): before first degrading past reduced
    // beams, ask the migration engine to move a rank toward the gating
    // group. A granted assist suppresses this one escalation — capacity is
    // being added instead of fidelity removed; if the backlog persists the
    // ladder resumes climbing on the next admission.
    if (level_ + 1 >= static_cast<int>(DegradationLevel::kFrozenHard) &&
        !assist_consumed_ && elastic_assist_) {
      assist_consumed_ = true;
      if (elastic_assist_()) return;
    }
    set_level_locked(level_ + 1);
  } else if (target < level_) {
    ++healthy_streak_;
    if (healthy_streak_ >= cfg_.dwell) set_level_locked(level_ - 1);
  } else {
    healthy_streak_ = 0;
  }
}

void OverloadController::set_level_locked(int level) {
  level_ = level;
  healthy_streak_ = 0;
  Event e{EventKind::kLevelChange};
  e.peer = level;
  log_.record(e);
}

OverloadController::Admission OverloadController::admit(index_t cpi) {
  std::unique_lock<std::mutex> lk(mu_);
  PPSTAP_REQUIRE(cpi >= 0 && cpi < static_cast<index_t>(memo_.size()),
                 "admission for an out-of-range CPI");
  const auto cached = [&]() -> Admission {
    const auto i = static_cast<size_t>(cpi);
    return {was_admitted_[i] != 0,
            static_cast<DegradationLevel>(
                memo_[i].load(std::memory_order_relaxed)),
            decided_at_[i]};
  };
  const Admission refused{false, DegradationLevel::kShedInput, 0.0};
  if (memo_[static_cast<size_t>(cpi)] >= 0) return cached();
  if (closed_) return refused;

  // Arrival pacing: CPI i exists no earlier than its front-end arrival
  // time. Every contender waits; whoever holds the lock when the deadline
  // passes decides, the rest pick up the memo.
  if (cfg_.arrival_period_seconds > 0.0) {
    if (start_time_ < 0.0) start_time_ = WallTimer::now();
    const double due = start_time_ + static_cast<double>(cpi) *
                                         cfg_.arrival_period_seconds;
    while (memo_[static_cast<size_t>(cpi)] < 0 && !closed_) {
      const double now = WallTimer::now();
      if (now >= due) break;
      cv_.wait_for(lk, std::chrono::duration<double>(due - now));
    }
    if (memo_[static_cast<size_t>(cpi)] >= 0) return cached();
    if (closed_) return refused;
  }

  if (cfg_.ladder) step_ladder_locked();

  int decided = cfg_.ladder ? level_ : 0;
  bool admit = decided < static_cast<int>(DegradationLevel::kShedInput);
  if (admit && backlog_locked() >= cfg_.queue_high) {
    if (cfg_.reject_when_full) {
      admit = false;
      decided = static_cast<int>(DegradationLevel::kShedInput);
    } else {
      log_.record({EventKind::kThrottle, 0.0, -1, -1, cpi});
      while (memo_[static_cast<size_t>(cpi)] < 0 && !closed_ &&
             backlog_locked() >= cfg_.queue_high)
        cv_.wait(lk);
      if (memo_[static_cast<size_t>(cpi)] >= 0) return cached();
      if (closed_) return refused;
    }
  }

  if (admit) {
    ++admitted_;
    // Credit a completion that raced ahead of this admission (the sink
    // shed-drains past a dead rank without waiting for the source): the
    // CPI enters the queue already drained, so it must not be allowed to
    // pin the backlog and deadlock the throttle.
    if (done_early_[static_cast<size_t>(cpi)] != 0) ++completed_;
  } else {
    log_.record({EventKind::kShed, 0.0, -1, -1, cpi, "admission"});
  }
  if (decided > 0) {
    Event e{EventKind::kDegraded, 0.0, -1, -1, cpi};
    e.peer = decided;
    e.note = degradation_level_name(static_cast<DegradationLevel>(decided));
    log_.record(e);
  }
  memo_[static_cast<size_t>(cpi)].store(static_cast<std::int8_t>(decided),
                                        std::memory_order_release);
  was_admitted_[static_cast<size_t>(cpi)] = admit ? 1 : 0;
  decided_at_[static_cast<size_t>(cpi)] = WallTimer::now();
  cv_.notify_all();
  return cached();
}

void OverloadController::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

void OverloadController::on_complete(index_t cpi, double latency_seconds,
                                     bool shed) {
  std::lock_guard<std::mutex> lk(mu_);
  if (cpi < 0 || cpi >= static_cast<index_t>(memo_.size())) return;
  if (was_admitted_[static_cast<size_t>(cpi)] == 0) {
    // Undecided: the sink outran the source (dead-rank shed-drain).
    // Remember the completion so admit() credits it; a decided-but-
    // rejected CPI stays ignored (its shed markers completing at the sink
    // are not queue drain — it never entered the queue).
    if (memo_[static_cast<size_t>(cpi)] < 0)
      done_early_[static_cast<size_t>(cpi)] = 1;
    return;
  }
  ++completed_;
  if (!shed && latency_seconds > 0.0) {
    if (latencies_.size() < kLatencyWindow) {
      latencies_.push_back(latency_seconds);
    } else {
      latencies_[latency_next_] = latency_seconds;
      latency_next_ = (latency_next_ + 1) % kLatencyWindow;
    }
  }
  cv_.notify_all();
}

void OverloadController::set_elastic_assist(std::function<bool()> assist) {
  std::lock_guard<std::mutex> lk(mu_);
  elastic_assist_ = std::move(assist);
  assist_consumed_ = false;
}

void OverloadController::note_capacity_loss() {
  std::lock_guard<std::mutex> lk(mu_);
  log_.record({EventKind::kCapacityLoss});
  // One immediate producing-rung escalation: the degradation ladder
  // absorbs the lost capacity before the backlog can pile up. The shed
  // rung stays reachable only through the queue_high bound / SLO path.
  if (cfg_.ladder && level_ < kNumDegradationLevels - 2)
    set_level_locked(level_ + 1);
  cv_.notify_all();
}

}  // namespace ppstap::core
