#include "core/cpi_source.hpp"

#include <algorithm>
#include <limits>
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
          [&gen](index_t cpi, cube::CpiCube& out,
                 const synth::ScenarioGenerator::RowProgress& progress) {
            gen.generate(cpi, out, progress);
          },
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
                               const std::shared_ptr<cube::CpiCube>& cube,
                               index_t rows, double t_admit) {
  auto [it, fresh] = cache_.try_emplace(cpi);
  Entry& e = it->second;
  if (!fresh && e.rows >= rows) return;  // the generator reported them all
  e.cube = cube;
  e.rows = rows;
  ++publications_;
  if (e.whole() && t_admit > 0.0 && obs::tracing_enabled())
    obs::emit({"generate", "source", -1, obs::kSourceTrack,
               static_cast<std::int64_t>(cpi), t_admit, WallTimer::now(),
               static_cast<std::int64_t>(cube->size() * sizeof(cfloat)), -1});
  // A cube still being written stays: its writer and readers use the entry.
  while (fresh && !cache_.empty() && cache_.begin()->first + window_ < cpi &&
         cache_.begin()->second.whole())
    cache_.erase(cache_.begin());
  cv_.notify_all();
}

CpiSource::Entry CpiSource::generate_locked(
    std::unique_lock<std::mutex>& lock, index_t cpi, double t_admit) {
  // The cube is written outside the lock, so the producer and inline
  // generations run side by side; the in-flight mark makes other callers
  // for this CPI wait for it, keeping the accounting exact.
  inflight_.insert(cpi);
  lock.unlock();
  std::shared_ptr<cube::CpiCube> cube;
  try {
    cube = fresh_cube();
    gen_(cpi, *cube, [&](index_t rows) {
      std::lock_guard<std::mutex> guard(mu_);
      publish_locked(cpi, cube, rows, t_admit);
    });
  } catch (...) {
    lock.lock();
    inflight_.erase(cpi);
    if (auto it = cache_.find(cpi);
        it != cache_.end() && it->second.cube == cube)
      cache_.erase(it);
    cv_.notify_all();
    throw;
  }
  lock.lock();
  inflight_.erase(cpi);
  publish_locked(cpi, cube, cube->extent(0), t_admit);
  return {cube, cube->extent(0)};
}

CpiSource::Entry CpiSource::await_locked(std::unique_lock<std::mutex>& lock,
                                         index_t cpi, index_t row, int rank) {
  note_started_locked(cpi);
  for (;;) {
    if (auto it = cache_.find(cpi); it != cache_.end()) {
      if (it->second.whole() || row < it->second.rows) return it->second;
    } else if (error_ && cpi >= error_cpi_) {
      std::rethrow_exception(error_);
    } else if (inflight_.count(cpi) == 0 && !(producing_ && cpi >= next_)) {
      break;
    }
    // Wait rather than duplicate work: someone is generating this CPI, or
    // the producer has yet to reach it.
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
  return generate_locked(lock, cpi, 0.0);
}

std::shared_ptr<const cube::CpiCube> CpiSource::get(index_t cpi, int rank) {
  std::unique_lock<std::mutex> lock(mu_);
  return await_locked(lock, cpi, std::numeric_limits<index_t>::max(), rank)
      .cube;
}

FinalRows CpiSource::rows(index_t cpi, index_t k0, index_t k1, int rank) {
  PPSTAP_REQUIRE(k0 >= 0 && k0 < k1, "row range must be nonempty");
  std::unique_lock<std::mutex> lock(mu_);
  const Entry e = await_locked(lock, cpi, k0, rank);
  lock.unlock();
  return {cube::ConstRows<cfloat>(*e.cube, k0, std::min(k1, e.rows)), e.cube};
}

void CpiSource::produce(index_t num_cpis) {
  std::unique_lock<std::mutex> lock(mu_);
  for (index_t i = 0; i < num_cpis; ++i) {
    // Double buffering, depth one: CPI i starts once a consumer has been
    // admitted CPI i-1.
    cv_.wait(lock, [&] { return stopping_ || started_ >= i - 1; });
    if (stopping_) break;
    // Admission first: a rejected CPI is never generated, and the pacing
    // and throttle waits happen here, before any front-end work.
    lock.unlock();
    const auto adm = decide(i);
    lock.lock();
    if (stopping_) break;
    if (!adm.admit) {
      next_ = i + 1;
      cv_.notify_all();
      continue;
    }
    ++generated_[i];
    try {
      generate_locked(lock, i, adm.at);
    } catch (...) {
      error_ = std::current_exception();
      error_cpi_ = i;
      break;
    }
    next_ = i + 1;
  }
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

index_t CpiSource::publications() const {
  std::lock_guard<std::mutex> lock(mu_);
  return publications_;
}

}  // namespace ppstap::core
