// Deterministic fault injection for the in-process comm runtime.
//
// A FaultPlan is a list of rules installed on a comm::World before run().
// Every rule matches messages by (src, dest, tag) — with -1 wildcards and an
// optional (tag % period == phase) form that selects one Fig.-4 edge across
// all CPIs, since the pipeline encodes tags as cpi * stride + edge — and
// applies one of four faults:
//
//   kDelay    the frame stays invisible to the receiver for delay_seconds
//             (in-flight latency; the sender is not blocked)
//   kDrop     the frame is silently discarded after the sender pays for it
//   kCorrupt  a byte of the delivered copy is flipped; the frame checksum
//             no longer matches and the receiver's retransmission path runs
//   kKill     the rank performing the matched operation (sender at kSend,
//             receiver at kRecv) throws comm::RankKilled *before* the
//             operation takes effect, so no message is half-consumed
//
// Gray-failure rules (PR 10) model degraded-but-alive behavior instead of
// fail-stop:
//
//   kSlow      a per-rank multiplicative compute slowdown: every stage
//              execution on the matched rank takes `factor` times as long.
//              With probability < 1 the slowdown is intermittent — the coin
//              is keyed on (rank, cpi), so a given CPI is slow or fast
//              deterministically regardless of thread scheduling
//   kJitter    heavy-tailed in-flight delivery delay on the matched edge:
//              each hit samples a bounded Pareto
//              delay = min(cap, scale * (u^{-1/shape} - 1))
//              so most frames see near-zero delay and a few see large ones
//   kDuplicate the frame is delivered twice with the *same* sequence
//              number (the second copy optionally delayed) — exercising
//              receiver-side idempotence rather than the retransmit path
//
// Decisions are deterministic: a rule with probability < 1 flips a coin
// hashed from (plan seed, rule index, src, dest, tag, per-pair sequence
// number), never from wall time or thread scheduling, so a seeded fault run
// replays exactly. All fault logic lives behind World's send/recv hooks —
// application code never branches on the plan (kSlow is consulted by the
// pipeline's compute wrapper, the one seam every stage already passes
// through).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace ppstap::comm {

enum class FaultType { kDelay, kDrop, kCorrupt, kKill, kSlow, kJitter,
                       kDuplicate };

/// Operation at which a kKill rule triggers (other types act on the frame
/// itself and only use kSend, where the frame is created).
enum class FaultPoint { kSend, kRecv };

struct FaultRule {
  FaultType type = FaultType::kDrop;
  FaultPoint point = FaultPoint::kSend;
  int src = -1;   ///< sending rank, -1 = any
  int dest = -1;  ///< receiving rank, -1 = any
  int tag = -1;   ///< exact tag, -1 = any (or use the period/phase form)
  /// When tag_period > 0 the rule matches tags with tag % tag_period ==
  /// tag_phase — one pipeline edge across every CPI.
  int tag_period = 0;
  int tag_phase = 0;
  double probability = 1.0;   ///< per matching message, seeded coin
  int max_applications = -1;  ///< stop after N applications, -1 = unlimited
  double delay_seconds = 0.0; ///< kDelay: fixed latency; kJitter: Pareto
                              ///< scale; kDuplicate: extra delay on the
                              ///< duplicated copy
  /// kSlow only: multiplicative compute slowdown (>= 1). The rule matches
  /// by `src` (the afflicted rank); dest/tag stay wildcards.
  double factor = 1.0;
  /// kJitter only: Pareto tail exponent (smaller = heavier tail).
  double shape = 1.5;
  /// kJitter only: hard cap on one sampled delay, seconds.
  double max_delay_seconds = 0.05;
};

/// Seeded *compute-stage* bit-flip injection (PR 5): flips one bit of one
/// element of a stage's output buffer after the kernel runs, before the
/// ABFT invariant is checked. Matched by task and CPI (with -1 wildcards)
/// instead of (src, dest, tag) — corruption happens inside a rank, not on
/// the wire. `occurrence` in the coin is the per-rule match ordinal, so a
/// probability sweep replays exactly. With max_applications = 1 the
/// recompute runs clean and the repair succeeds; with max_applications = 2
/// both executions are corrupted and the policy must escalate.
struct ComputeFaultRule {
  int task = -1;            ///< stap::Task ordinal, -1 = any
  long long cpi = -1;       ///< CPI index, -1 = any
  double probability = 1.0; ///< per matching execution, seeded coin
  int bit = 30;             ///< bit to flip (30 = top exponent bit)
  int max_applications = 1; ///< stop after N flips, -1 = unlimited
  int rank = -1;            ///< executing global rank, -1 = any
};

/// Counters of faults actually applied during the current run.
struct FaultStats {
  std::uint64_t delayed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t kills = 0;
  std::uint64_t flips = 0;       ///< compute-stage bit flips injected
  std::uint64_t slowed = 0;      ///< stage executions stretched by kSlow
  std::uint64_t jittered = 0;    ///< frames hit by heavy-tailed jitter
  std::uint64_t duplicated = 0;  ///< frames re-delivered by kDuplicate
  std::uint64_t total() const {
    return delayed + dropped + corrupted + kills + flips + slowed +
           jittered + duplicated;
  }
};

class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 0x5eedf417) : seed_(seed) {}

  FaultPlan& add(const FaultRule& rule);
  FaultPlan& add_compute(const ComputeFaultRule& rule);

  // Convenience builders -----------------------------------------------------
  /// Delay every matching frame of one pipeline edge by `seconds` with the
  /// given probability.
  static FaultRule delay_edge(int edge, int tag_stride, double seconds,
                              double probability = 1.0);
  /// Delay the exact (src, dest, tag) frame.
  static FaultRule delay_message(int src, int dest, int tag, double seconds);
  static FaultRule drop_message(int src, int dest, int tag);
  static FaultRule corrupt_message(int src, int dest, int tag,
                                   int max_applications = 1);
  /// Kill `rank` when it first attempts to receive a message with `tag`
  /// (before consuming anything — recovery sees an intact mailbox).
  static FaultRule kill_on_recv(int rank, int tag);
  /// Kill `rank` when it first attempts to send a message with `tag`.
  static FaultRule kill_on_send(int rank, int tag);
  /// Slow every stage execution on `rank` by `factor`. With
  /// probability < 1 the slowdown is intermittent per CPI (the coin is
  /// keyed on (rank, cpi), never on scheduling order).
  static FaultRule slow_rank(int rank, double factor,
                             double probability = 1.0);
  /// Heavy-tailed delivery jitter on one pipeline edge: each matching
  /// frame (with the given probability) is delayed by a bounded Pareto
  /// sample with the given scale/shape, capped at `cap` seconds.
  static FaultRule jitter_edge(int edge, int tag_stride, double scale,
                               double shape = 1.5, double cap = 0.05,
                               double probability = 1.0);
  /// Re-deliver matching frames of one pipeline edge a second time with
  /// the same sequence number (a duplicate storm at probability 1).
  static FaultRule duplicate_edge(int edge, int tag_stride,
                                  double probability = 1.0,
                                  double extra_delay = 0.0);
  /// Duplicate the exact (src, dest, tag) frame once.
  static FaultRule duplicate_message(int src, int dest, int tag);
  /// Flip `bit` of one output element of `task`'s execution for `cpi`
  /// (once by default; pass max_applications = 2 to also corrupt the
  /// recompute and force an escalation — when the task has several ranks,
  /// also pin the rule's `rank`, or the two flips may land on two ranks'
  /// first executions and both be repaired).
  static ComputeFaultRule flip_stage(int task, long long cpi, int bit = 30,
                                     int max_applications = 1);

  // Hooks called by World (thread-safe) --------------------------------------
  /// True when a kKill rule fires for the rank performing the operation.
  bool kill_due(FaultPoint point, int src, int dest, int tag);
  /// True when the frame should be silently dropped.
  bool drop_due(int src, int dest, int tag, std::uint64_t seq);
  /// Injected in-flight latency for the frame (0 = none).
  double delay_due(int src, int dest, int tag, std::uint64_t seq);
  /// True when the frame copy should be corrupted. `attempt` distinguishes
  /// the original delivery (0) from retransmissions, so a count-limited rule
  /// corrupts once and the retransmitted copy arrives clean.
  bool corrupt_due(int src, int dest, int tag, std::uint64_t seq,
                   int attempt);
  /// True when a compute-stage flip fires for this execution; on true,
  /// `*bit` receives the bit index the rule asks to flip. `attempt`
  /// distinguishes the original execution (0) from the recompute (1) so a
  /// count-limited rule leaves the recompute clean. Called by the pipeline
  /// stages, not by World.
  bool compute_flip_due(int task, long long cpi, int rank, int attempt,
                        int* bit);
  /// Combined multiplicative slowdown for `rank` executing a stage of
  /// `cpi` (1.0 = nominal). Intermittent rules flip their coin on
  /// (rank, cpi) only, so the answer is identical however threads
  /// interleave. Called by the pipeline's compute wrapper, not by World.
  double slow_factor_due(int rank, long long cpi);
  /// True when the frame should be delivered a second time with the same
  /// seq; on true `*extra_delay` receives the duplicate copy's additional
  /// in-flight latency.
  bool duplicate_due(int src, int dest, int tag, std::uint64_t seq,
                     double* extra_delay);

  FaultStats stats() const;
  /// Zero the stats and per-rule application counters (World::run calls
  /// this so plans replay identically across runs).
  void reset();

 private:
  bool rule_applies(std::size_t idx, const FaultRule& r, int src, int dest,
                    int tag, std::uint64_t salt);

  std::uint64_t seed_;
  mutable std::mutex mu_;
  std::vector<FaultRule> rules_;
  std::vector<int> applications_;
  std::vector<std::uint64_t> match_counter_;
  std::vector<ComputeFaultRule> compute_rules_;
  std::vector<int> compute_applications_;
  std::vector<std::uint64_t> compute_match_counter_;
  FaultStats stats_;
};

}  // namespace ppstap::comm
