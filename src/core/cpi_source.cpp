#include "core/cpi_source.hpp"

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ppstap::core {

// Freed cube storage waiting for the next CPI. The cubes' deleters hand
// their storage back here (under the pool's own lock, which orders the
// last reader's accesses before the next writer's), so the steady state
// cycles the same few buffers: each publish evicts one cube, whose storage
// carries the next CPI, so one free slot is enough.
struct CpiSource::Pool {
  static constexpr size_t kMaxFree = 1;
  std::mutex mu;
  std::vector<std::unique_ptr<cube::CpiCube>> free;

  void recycle(cube::CpiCube* c) {
    std::unique_ptr<cube::CpiCube> owned(c);
    std::lock_guard<std::mutex> lock(mu);
    if (free.size() < kMaxFree) free.push_back(std::move(owned));
  }
};

CpiSource::CpiSource(const synth::ScenarioGenerator& gen, index_t window,
                     index_t max_regenerations)
    : CpiSource(
          [&gen](index_t cpi, cube::CpiCube& out) { gen.generate(cpi, out); },
          window, max_regenerations) {}

CpiSource::CpiSource(Generator gen, index_t window, index_t max_regenerations)
    : gen_(std::move(gen)),
      window_(window),
      max_regenerations_(max_regenerations),
      pool_(std::make_shared<Pool>()) {
  // Listed in every export, at zero, once a source exists.
  obs::Registry::global().counter("cpi_source.regenerations");
  obs::Registry::global().counter("cpi_source.regeneration_storms");
}

CpiSource::~CpiSource() { stop(); }

OverloadController::Admission CpiSource::decide(index_t cpi) {
  if (ctrl_ != nullptr) return ctrl_->admit(cpi);
  std::lock_guard<std::mutex> lock(mu_);
  const double at =
      admitted_at_.try_emplace(cpi, WallTimer::now()).first->second;
  return {true, DegradationLevel::kFull, at};
}

void CpiSource::note_started_locked(index_t cpi) {
  if (cpi <= started_) return;
  started_ = cpi;
  cv_.notify_all();
}

OverloadController::Admission CpiSource::admit(index_t cpi) {
  const auto adm = decide(cpi);
  std::lock_guard<std::mutex> lock(mu_);
  note_started_locked(cpi);
  return adm;
}

std::shared_ptr<cube::CpiCube> CpiSource::fresh_cube() {
  std::unique_ptr<cube::CpiCube> c;
  {
    std::lock_guard<std::mutex> lock(pool_->mu);
    if (!pool_->free.empty()) {
      c = std::move(pool_->free.back());
      pool_->free.pop_back();
    }
  }
  if (!c) c = std::make_unique<cube::CpiCube>();
  return {c.release(), [pool = pool_](cube::CpiCube* p) { pool->recycle(p); }};
}

void CpiSource::publish_locked(index_t cpi,
                               std::shared_ptr<const cube::CpiCube> cube,
                               double t_admit) {
  if (t_admit > 0.0 && obs::tracing_enabled())
    obs::emit({"generate", "source", -1, obs::kSourceTrack,
               static_cast<std::int64_t>(cpi), t_admit, WallTimer::now(),
               static_cast<std::int64_t>(cube->size() * sizeof(cfloat)), -1});
  cache_[cpi] = std::move(cube);
  while (!cache_.empty() && cache_.begin()->first + window_ < cpi)
    cache_.erase(cache_.begin());
  cv_.notify_all();
}

std::shared_ptr<const cube::CpiCube> CpiSource::get(index_t cpi, int rank) {
  std::unique_lock<std::mutex> lock(mu_);
  note_started_locked(cpi);
  for (;;) {
    if (auto it = cache_.find(cpi); it != cache_.end()) return it->second;
    if (error_ && cpi >= error_cpi_) std::rethrow_exception(error_);
    // Wait rather than duplicate work: someone is generating this CPI, or
    // the producer has yet to reach it.
    if (inflight_.count(cpi) == 0 && !(producing_ && cpi >= next_)) break;
    cv_.wait(lock);
  }

  const int prior = generated_[cpi]++;
  if (prior > 0) {
    ++regenerations_;
    obs::Registry::global().counter("cpi_source.regenerations").add(1);
    if (rank >= 0)
      obs::Registry::global()
          .counter("cpi_source.regenerations.rank" + std::to_string(rank))
          .add(1);
    if (regenerations_ > max_regenerations_) {
      obs::Registry::global()
          .counter("cpi_source.regeneration_storms")
          .add(1);
      throw Error(
          "CPI regeneration storm: a straggler past the eviction window "
          "regenerated " +
          std::to_string(regenerations_) +
          " cubes (bound " + std::to_string(max_regenerations_) +
          "); the pipeline has fallen out of lockstep");
    }
  }
  // The miss path generates outside the lock, so the producer keeps
  // publishing meanwhile; the in-flight mark makes concurrent callers for
  // this CPI wait for it, keeping the accounting exact.
  inflight_.insert(cpi);
  lock.unlock();
  std::shared_ptr<cube::CpiCube> cube;
  try {
    cube = fresh_cube();
    gen_(cpi, *cube);
  } catch (...) {
    lock.lock();
    inflight_.erase(cpi);
    cv_.notify_all();
    throw;
  }
  lock.lock();
  inflight_.erase(cpi);
  publish_locked(cpi, cube, 0.0);
  return cube;
}

void CpiSource::produce(index_t num_cpis) {
  for (index_t i = 0; i < num_cpis; ++i) {
    {
      // Double buffering, depth one: CPI i starts once a consumer has been
      // admitted CPI i-1.
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || started_ >= i - 1; });
      if (stopping_) break;
    }
    // Admission first: a rejected CPI is never generated, and the pacing
    // and throttle waits happen here, before any front-end work.
    const auto adm = decide(i);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) break;
      if (!adm.admit) {
        next_ = i + 1;
        cv_.notify_all();
        continue;
      }
      ++generated_[i];
      inflight_.insert(i);
    }
    std::shared_ptr<cube::CpiCube> cube;
    try {
      cube = fresh_cube();
      gen_(i, *cube);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(i);
      error_ = std::current_exception();
      error_cpi_ = i;
      break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(i);
    next_ = i + 1;
    publish_locked(i, std::move(cube), adm.at);
  }
  std::lock_guard<std::mutex> lock(mu_);
  producing_ = false;
  cv_.notify_all();
}

void CpiSource::start(index_t num_cpis) {
  std::lock_guard<std::mutex> lock(mu_);
  PPSTAP_REQUIRE(!producer_.joinable(),
                 "the CPI producer is already running");
  producing_ = true;
  stopping_ = false;
  next_ = 0;
  producer_ = std::thread([this, num_cpis] { produce(num_cpis); });
}

void CpiSource::stop() {
  if (!producer_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (ctrl_ != nullptr) ctrl_->close();
  producer_.join();
}

index_t CpiSource::regeneration_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return regenerations_;
}

index_t CpiSource::produced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_;
}

}  // namespace ppstap::core
