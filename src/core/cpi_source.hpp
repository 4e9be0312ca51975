// Thread-safe CPI input feed for the parallel pipeline: the radar front end.
//
// In the flight system, CPI cubes arrive from separate front-end hardware,
// which corner-turns each CPI and streams it to the Doppler nodes while
// the next one is being filled, and every Doppler node reads its range
// slab of the same CPI. Here the scene generator plays the radar. One
// producer thread (start()/stop()) walks the CPIs at most one ahead of the
// fastest Doppler rank: it begins CPI i only after some rank has been
// admitted CPI i-1, so it double-buffers the feed without ever racing
// ahead of what the pipeline admits. It synthesizes each cube alone, one
// block of range rows at a time (synth::ScenarioGenerator::kBlockBytes),
// and publishes the CPI as soon as its first block is final, then each
// further block as it completes. A Doppler rank reads its slab through
// rows(), which hands out only final rows, so its filter runs underneath
// the synthesis of the rows after them. A scene that fits one block is
// published once, when it is whole. The producer passes admission
// *before* it generates, so a rejected CPI costs no front-end work and the
// arrival pacing is unchanged.
//
// Cubes are memoized so the P0 Doppler ranks share one per CPI, and cubes
// older than a small window are evicted (a cube still being written never
// is). get() and rows() generate inline only on a miss: first touch when
// no producer runs (unit tests, sequential tools), or a straggler that
// missed the window, which transparently regenerates. Cube storage is
// recycled once its last reference drops, so a running front end
// allocates nothing per CPI.
//
// Regeneration is bounded: a straggler stuck behind the eviction window
// regenerates the full cube on every get(), which unchecked turns one slow
// rank into a compute storm. After `max_regenerations` the source throws
// instead — by then the pipeline is so far out of lockstep that failing
// loudly beats silently burning CPU. Each regeneration bumps the
// "cpi_source.regenerations" obs counter plus a per-rank
// "cpi_source.regenerations.rank<N>" counter (the storm's *culprit* is the
// straggling rank, and per-rank attribution is what the gray-failure
// robustness block surfaces); tripping the bound bumps
// "cpi_source.regeneration_storms" before throwing, so the storm is
// visible in the --json accounting and not only in the abort message.
//
// Latency origin: every CPI's admission is stamped once, when the decision
// is made (OverloadController memo, or the first admit() without a
// controller), and that stamp is where eq. (2) latency starts — whichever
// thread admitted the CPI. With tracing on, the producer records one
// "generate" span per CPI on obs::kSourceTrack, from that stamp until the
// cube's last block is published; critical-path chains start there, and a
// Doppler filter already running on the first blocks overlaps it.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "core/overload.hpp"
#include "synth/scenario.hpp"

namespace ppstap::core {

/// Final rows of a CPI cube being streamed by a CpiSource, read in place.
/// `keep` holds the cube's storage for as long as the rows are read.
struct FinalRows {
  cube::ConstRows<cfloat> rows;
  std::shared_ptr<const void> keep;
};

class CpiSource {
 public:
  /// Fills `out` with CPI `cpi` (reusing its storage when the shape fits),
  /// reporting the final leading rows through `progress` as it goes (see
  /// synth::ScenarioGenerator::generate). A generator that reports nothing
  /// publishes its cube whole when it returns. Must be deterministic per
  /// index and safe to call concurrently.
  using Generator =
      std::function<void(index_t cpi, cube::CpiCube& out,
                         const synth::ScenarioGenerator::RowProgress& progress)>;

  explicit CpiSource(const synth::ScenarioGenerator& gen, index_t window = 4,
                     index_t max_regenerations = 64);
  explicit CpiSource(Generator gen, index_t window = 4,
                     index_t max_regenerations = 64);
  /// Stops the producer if it still runs.
  ~CpiSource();

  CpiSource(const CpiSource&) = delete;
  CpiSource& operator=(const CpiSource&) = delete;

  /// Attach the overload controller gating this feed (nullptr detaches).
  /// Not thread safe; install before start() and before the pipeline
  /// starts pulling. stop() closes it.
  void set_overload_controller(OverloadController* ctrl) { ctrl_ = ctrl; }

  /// Consumer admission gate for CPI `cpi`: pacing, the bounded-queue high
  /// watermark, and the degradation ladder all apply here, *before* the
  /// cube is generated — a rejected CPI costs no front-end work. Without a
  /// controller every CPI is admitted at full fidelity. `at` is the CPI's
  /// admission stamp, identical for every caller. Returning also marks the
  /// CPI as started, which lets the producer run one CPI further ahead.
  OverloadController::Admission admit(index_t cpi);

  /// The full CPI cube for index `cpi` (shared, immutable). Waits for the
  /// producer when it will publish `cpi`; otherwise generates inline.
  /// Rethrows a producer failure at or before `cpi`. Throws once the total
  /// regeneration count exceeds the bound. `rank` (when >= 0) attributes
  /// any regeneration to the calling rank in its per-rank obs counter.
  std::shared_ptr<const cube::CpiCube> get(index_t cpi, int rank = -1);

  /// The streamed view of get(): waits until row `k0` of CPI `cpi` is
  /// final, then returns the final rows of [k0, k1) — at least one, all of
  /// them once the cube is whole. Same waiting, miss, failure and
  /// regeneration rules as get(). Requires 0 <= k0 < k1 <= K.
  FinalRows rows(index_t cpi, index_t k0, index_t k1, int rank = -1);

  /// Start the front-end producer thread for CPIs [0, num_cpis). At most
  /// one producer per source.
  void start(index_t num_cpis);

  /// Stop and join the producer, from any wait it is in — including an
  /// admission wait inside the controller, which is closed for good. A CPI
  /// being generated is finished first. Idempotent; later misses fall back
  /// to inline generation.
  void stop();

  /// How many CPIs had to be generated more than once (eviction misses);
  /// useful as a health check in tests.
  index_t regeneration_count() const;

  /// CPIs the producer has finished with (published or passed over as
  /// rejected): it is working on, or waiting to start, CPI produced().
  index_t produced() const;

  /// Row-block publications so far, over every CPI and generation: each
  /// one wakes the waiting consumers once.
  index_t publications() const;

 private:
  struct Pool;  // recycled cube storage, shared with the cubes' deleters

  // A published cube: rows [0, rows) are final; it is whole at K rows.
  struct Entry {
    std::shared_ptr<const cube::CpiCube> cube;
    index_t rows = 0;
    bool whole() const { return rows == cube->extent(0); }
  };

  OverloadController::Admission decide(index_t cpi);
  void note_started_locked(index_t cpi);
  std::shared_ptr<cube::CpiCube> fresh_cube();
  // Waits until CPI `cpi` has more than `row` final rows (whole, for a
  // row at or past K) and returns its entry, or generates it inline on a
  // miss.
  Entry await_locked(std::unique_lock<std::mutex>& lock, index_t cpi,
                     index_t row, int rank);
  // Generates CPI `cpi` with `lock` released, publishing its blocks as
  // they become final, and returns it whole. On failure the partial cube
  // is withdrawn and the exception propagates; `lock` is held again on
  // every exit.
  Entry generate_locked(std::unique_lock<std::mutex>& lock, index_t cpi,
                        double t_admit);
  void publish_locked(index_t cpi, const std::shared_ptr<cube::CpiCube>& cube,
                      index_t rows, double t_admit);
  void produce(index_t num_cpis);

  Generator gen_;
  index_t window_;
  index_t max_regenerations_;
  OverloadController* ctrl_ = nullptr;
  std::shared_ptr<Pool> pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<index_t, Entry> cache_;
  std::set<index_t> inflight_;  // being generated right now
  std::map<index_t, int> generated_;
  std::map<index_t, double> admitted_at_;  // stamps when no controller
  index_t regenerations_ = 0;
  index_t publications_ = 0;

  // Producer state.
  std::thread producer_;
  bool producing_ = false;  // the producer will still publish CPIs >= next_
  bool stopping_ = false;
  index_t next_ = 0;        // first CPI the producer has not finished
  index_t started_ = -1;    // highest CPI a consumer has been admitted
  std::exception_ptr error_;
  index_t error_cpi_ = 0;
};

}  // namespace ppstap::core
