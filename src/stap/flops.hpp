// Analytic floating-point operation counts per STAP task (paper Table 1).
//
// These formulas mirror the accounting conventions of the instrumented
// kernels (complex multiply-add = 8 flops, radix-2 FFT = 5 n log2 n), so
// analytic and measured counts agree closely; both are compared against the
// paper's Table 1 by bench/table1_flops. The analytic counts also drive the
// discrete-event machine model's compute-time predictions.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "stap/params.hpp"

namespace ppstap::stap {

/// The seven pipeline tasks in the paper's order (Fig. 4).
enum class Task {
  kDopplerFilter = 0,
  kEasyWeight = 1,
  kHardWeight = 2,
  kEasyBeamform = 3,
  kHardBeamform = 4,
  kPulseCompression = 5,
  kCfar = 6,
};
inline constexpr int kNumTasks = 7;

/// Flop conventions of the weight solvers, shared by linalg's instrumented
/// kernels, the batched weight computers and the analytic model:
///  * qr_flops — Householder QR of an m x n matrix (m >= n): per column,
///    the norm accumulation (2 per element) plus reflector application (16
///    per element per trailing column);
///  * qr_apply_flops — applying those reflectors to `nrhs` right-hand sides
///    (reflector j touches rows j..m-1);
///  * back_substitute_flops — solving an n x n triangle for `nrhs` columns;
///  * qr_append_flops — the block row-append update of k rows onto an n x n
///    R carrying `nrhs` right-hand sides through the same reflectors.
std::uint64_t qr_flops(std::uint64_t m, std::uint64_t n);
std::uint64_t qr_apply_flops(std::uint64_t m, std::uint64_t n,
                             std::uint64_t nrhs);
std::uint64_t back_substitute_flops(std::uint64_t n, std::uint64_t nrhs);
std::uint64_t qr_append_flops(std::uint64_t k, std::uint64_t n,
                              std::uint64_t nrhs);

/// Printable task name matching the paper's tables.
const char* task_name(Task t);

/// Analytic flops for one CPI through task `t` under parameters `p`.
std::uint64_t analytic_flops(Task t, const StapParams& p);

/// All seven tasks plus the total, in task order (total at index 7).
std::array<std::uint64_t, kNumTasks + 1> analytic_flops_table(
    const StapParams& p);

/// The paper's Table 1 values (flops per CPI for the §7 parameter set),
/// for side-by-side comparison in benches and EXPERIMENTS.md.
std::array<std::uint64_t, kNumTasks + 1> paper_table1();

}  // namespace ppstap::stap
