#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/flops.hpp"

namespace ppstap {

namespace {

// Bounds [begin, end) of block `i` when [0, total) splits into `blocks`
// contiguous blocks whose sizes differ by at most one, the larger first.
std::pair<index_t, index_t> block_range(index_t total, index_t blocks,
                                        index_t i) {
  const index_t base = total / blocks;
  const index_t rem = total % blocks;
  const index_t begin = i * base + std::min(i, rem);
  return {begin, begin + base + (i < rem ? 1 : 0)};
}

}  // namespace

void parallel_for_blocks(index_t threads, index_t total,
                         const std::function<void(index_t, index_t)>& fn) {
  PPSTAP_REQUIRE(threads >= 1, "need at least one thread");
  PPSTAP_REQUIRE(total >= 0, "iteration count must be nonnegative");
  if (total == 0) return;
  const index_t used = std::min(threads, total);
  if (used == 1) {
    fn(0, total);
    return;
  }

  // The flop counter is thread-local; when the caller is instrumented, each
  // worker runs under its own FlopScope and the counts fold back into the
  // caller after the join, so totals are thread-count invariant.
  const bool count_enabled = detail::flop_state().enabled;
  std::atomic<std::uint64_t> worker_flops{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(used - 1));
  for (index_t i = 1; i < used; ++i) {
    const auto [begin, end] = block_range(total, used, i);
    workers.emplace_back([&, begin = begin, end = end] {
      try {
        if (count_enabled) {
          FlopScope scope;
          fn(begin, end);
          worker_flops.fetch_add(scope.count(), std::memory_order_relaxed);
        } else {
          fn(begin, end);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  const auto [begin0, end0] = block_range(total, used, 0);
  try {
    fn(begin0, end0);
  } catch (...) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!first_error) first_error = std::current_exception();
  }
  for (auto& w : workers) w.join();
  count_flops(worker_flops.load(std::memory_order_relaxed));
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ppstap
