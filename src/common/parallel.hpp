// Intra-task data parallelism (paper §8 future work: "multi-threading ...
// and multiple processors on each compute node").
//
// The Paragon's compute nodes carried three i860s on shared memory; the
// flight deployment used them as a small SMP. parallel_for_blocks gives the
// task kernels the same option: the iteration space splits into contiguous
// blocks, one per thread, so every thread writes a disjoint output slab and
// results are bitwise identical to the sequential run for any thread count.
//
// Threads are spawned per call. That is deliberate: calls happen once per
// kernel per CPI (not per element), the kernels run inside rank threads of
// the pipeline (a shared pool would serialize unrelated ranks), and spawn
// cost is microseconds against kernel times of milliseconds.
//
// Flop accounting: when the caller is inside a FlopScope, each worker runs
// under its own scope and the per-worker counts are summed into the caller's
// thread-local counter on join, so instrumented runs see the same totals at
// any thread count.
#pragma once

#include <functional>

#include "common/types.hpp"

namespace ppstap {

/// Run fn(begin, end) over a block partition of [0, total) on `threads`
/// threads (the calling thread executes the first block). threads <= 1 or
/// total == 0 degrades to a plain call. Exceptions from worker blocks are
/// rethrown on the caller (first one wins).
void parallel_for_blocks(index_t threads, index_t total,
                         const std::function<void(index_t, index_t)>& fn);

}  // namespace ppstap
