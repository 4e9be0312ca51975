// Live elastic rank migration for the pipelined STAP runtime.
//
// The paper studies node reassignment only as offline what-ifs (Tables 9
// and 10: move ranks into the gating task group, recompute equation-1
// throughput). This module performs the reassignment at runtime, on a live
// stream, and survives faults injected while it happens:
//
//  * A `Topology` is one immutable epoch of the run: the per-task rank
//    lists plus every block partition derived from them. The engine keeps
//    an append-only epoch sequence; `topo(cpi)` is the topology governing
//    that CPI, so every rank resolves partners and partitions per CPI
//    instead of hoisting them at startup.
//
//  * Migration is a transactional two-phase protocol anchored at a CPI
//    barrier B chosen ahead of every rank's progress. Each rank, on
//    reaching B, checkpoints its partition state (via SolverStateTransfer),
//    VOTEs to the coordinator (checkpoint checksum + candidate-topology
//    checksum), and waits for the VERDICT. The coordinator commits only
//    when every rank voted consistently within the stall budget; any
//    timeout, peer death, or checksum mismatch aborts the attempt. The
//    single linearization point is an atomic outcome CAS
//    (pending -> committed | rolled_back): whoever wins the CAS resolves
//    the attempt for everyone, so a dead coordinator cannot wedge the
//    stream. A rolled-back attempt restores nothing because nothing was
//    changed: the new epoch is published only after a commit, and every
//    rank keeps streaming under the old topology.
//
//  * Only the stateless per-CPI tasks (Doppler, pulse compression, CFAR)
//    migrate: their partition state is fully reconstructed from the new
//    topology, which is what makes a committed migration bit-exact. The
//    weight tasks carry cross-CPI solver state (training history,
//    triangular factors) and temporal send-ahead edges; their
//    SolverStateTransfer reports can_transfer() == false until a pluggable
//    cheap-solver path (arXiv:1008.4160) provides a transferable
//    representation, so they are never chosen as donor or recipient.
//
// Two drivers feed proposals: a policy loop on the coordinator rank driven
// by obs::critical_path's live verdict (gated on predicted equation-1 gain
// amortized over a horizon exceeding the expected quiesce stall, with
// two-tick hysteresis), and an OverloadController assist rung that asks for
// a migration toward the gating group before degrading to frozen-hard or
// stale weights. Every attempt — committed or rolled back — is recorded
// into the run's event log when it resolves.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/assignment.hpp"
#include "core/events.hpp"
#include "cube/partition.hpp"
#include "stap/flops.hpp"
#include "stap/params.hpp"

namespace ppstap::comm {
class Comm;
class World;
}  // namespace ppstap::comm

namespace ppstap::core {

/// True for the stateless per-CPI tasks whose partition state can be
/// rebuilt from a Topology alone (Doppler, pulse compression, CFAR).
bool task_migratable(stap::Task t);

/// One epoch of the run: who runs what, and every partition derived from
/// the group sizes. Immutable once published; ranks read it per CPI.
struct Topology {
  NodeAssignment assign;
  /// Global rank ids per task, in local-index order. A migration removes
  /// the donor's last local rank and appends it to the recipient, so every
  /// non-migrating rank keeps its (task, local) role across the epoch
  /// boundary and only the partition fan-out changes.
  std::array<std::vector<int>, stap::kNumTasks> ranks;

  cube::BlockPartition part_k;     // Doppler filtering: range cells
  cube::BlockPartition part_ewt;   // easy weights: easy-bin positions
  cube::BlockPartition part_hwu;   // hard weights: (bin, segment) units
  cube::BlockPartition part_ebf;   // easy BF: easy-bin positions
  cube::BlockPartition part_hbf;   // hard BF: hard-bin positions
  cube::BlockPartition part_pc;    // pulse compression: global bins
  cube::BlockPartition part_cfar;  // CFAR: global bins

  /// Contiguous task-ordered layout (rank 0 = first Doppler rank).
  static Topology initial(const stap::StapParams& p, const NodeAssignment& a);

  /// The candidate after moving the donor's last local rank to the end of
  /// the recipient's list. Requires both tasks migratable and the donor to
  /// keep at least one rank.
  Topology migrated(const stap::StapParams& p, stap::Task donor,
                    stap::Task recipient) const;

  /// The candidate after removing `dead_rank` from its task group (elastic
  /// shrink-to-survivors): the group's node count drops by one and every
  /// partition is re-planned across the remaining ranks, re-running the
  /// Tables 7-10 placement on the reduced count. Requires the rank's task
  /// migratable (its state must be rebuildable from the topology) and the
  /// group to keep at least one rank.
  Topology shrunk(const stap::StapParams& p, int dead_rank) const;

  int count(stap::Task t) const {
    return static_cast<int>(ranks[static_cast<size_t>(t)].size());
  }
  int rank_at(stap::Task t, int local) const {
    return ranks[static_cast<size_t>(t)][static_cast<size_t>(local)];
  }
  int total() const;

  struct Role {
    stap::Task task = stap::Task::kDopplerFilter;
    int local = -1;
  };
  /// Which (task, local) slot `global_rank` occupies in this epoch.
  Role role_of(int global_rank) const;

  /// Structural checksum (assignment + rank lists); voted on at the
  /// barrier so every participant provably agrees on the candidate.
  std::uint64_t checksum() const;
};

/// Pluggable per-task solver-state transfer, consulted at every migration
/// barrier. The stateless tasks serialize (and can rebuild) their partition
/// descriptor; the adaptive-weight tasks only attest their progress and
/// report can_transfer() == false — the seam where the pluggable
/// weight-computation paths of arXiv:1008.4160 would slot a transferable
/// solver representation in, making the weight groups elastic too.
class SolverStateTransfer {
 public:
  virtual ~SolverStateTransfer() = default;
  virtual const char* scheme() const = 0;
  /// Whether a successor rank could resume this task from save() alone.
  virtual bool can_transfer() const = 0;
  /// Serialize the state needed to continue `role` from `next_cpi`.
  virtual std::vector<std::byte> save(const Topology& t, Topology::Role role,
                                      index_t next_cpi) const = 0;
};

std::unique_ptr<SolverStateTransfer> make_state_transfer(stap::Task t);

struct ForcedMigration {
  index_t at_cpi = 0;  ///< propose once the coordinator reaches this CPI
  stap::Task donor = stap::Task::kPulseCompression;
  stap::Task recipient = stap::Task::kDopplerFilter;
};

struct ElasticConfig {
  /// Master switch for the analyzer-driven policy loop (PPSTAP_ELASTIC).
  /// Forced migrations and the overload assist work whenever the engine is
  /// installed, even with the policy loop off.
  bool enabled = false;
  /// Policy cadence and amortization window, in CPIs
  /// (PPSTAP_ELASTIC_HORIZON): the predicted per-CPI gain is credited over
  /// this many CPIs and must exceed the expected quiesce stall.
  int horizon_cpis = 8;
  /// Vote-collection deadline at the barrier, seconds
  /// (PPSTAP_ELASTIC_STALL_BUDGET). Participants wait twice this (plus
  /// margin) for the verdict. Generous budgets cost nothing on clean runs —
  /// they are deadlines, not sleeps.
  double stall_budget_seconds = 5.0;
  /// Cap on committed migrations per run (PPSTAP_ELASTIC_MAX_MIGRATIONS).
  int max_migrations = 1;
  /// Barrier distance ahead of the fastest rank's observed progress.
  index_t barrier_margin = 2;
  /// Minimum predicted throughput gain fraction for a policy migration.
  double min_gain_fraction = 0.05;
  /// CPIs the policy stays quiet after a rolled-back attempt.
  int cooldown_cpis = 16;
  /// Deterministic migrations for tests/benches, fired in order.
  std::vector<ForcedMigration> forced;

  bool any() const { return enabled || !forced.empty(); }

  /// Read the PPSTAP_ELASTIC* knobs (see README). Garbage throws; the
  /// engine is never silently misconfigured.
  static ElasticConfig from_env();
  /// Throws ppstap::Error on an inconsistent configuration.
  void validate() const;
};

/// The shared migration engine: one instance per pipeline run, used
/// concurrently by every rank thread.
class ElasticEngine {
 public:
  ElasticEngine(comm::World* world, const stap::StapParams& p,
                Topology initial, ElasticConfig cfg, index_t n_cpis,
                EventLog& log);

  /// Topology governing `cpi`. Lock-free fast path.
  const Topology& topo(index_t cpi) const;
  const Topology& final_topology() const;
  /// Number of published epochs (1 + committed migrations).
  int epoch_count() const;

  /// Per-CPI hook at the top of every task loop: records progress, takes
  /// part in a pending barrier once `cpi` reaches it (checkpoint + VOTE +
  /// VERDICT, or vote collection on the coordinator), and returns the
  /// topology for `cpi`. The rank's role under the returned topology may
  /// differ from its role at cpi-1 — the caller must then return control
  /// to the per-rank driver loop.
  const Topology& barrier_point(comm::Comm& c, index_t cpi);

  /// Coordinator-only (lead Doppler rank) policy hook, called once per
  /// CPI; internally paced to the configured horizon. Fires forced
  /// migrations, consumes overload-assist requests, and evaluates the
  /// critical-path verdict.
  void policy_tick(comm::Comm& c, index_t cpi);

  /// OverloadController assist rung: ask for one migration toward the
  /// gating group instead of escalating past reduced-beams. Nonblocking;
  /// safe from any thread. Returns false once the attempt budget is spent.
  bool request_overload_assist();

  int coordinator_rank() const { return coordinator_rank_; }
  const ElasticConfig& config() const { return cfg_; }

  /// Highest CPI `rank` has reached (top-of-loop via barrier_point); -1
  /// before its first CPI. A dead rank's progress freezes at its death
  /// point — which is exactly the resume CPI for a spare takeover of a
  /// stateless task.
  index_t progress_of(int rank) const {
    return progress_[static_cast<size_t>(rank)].load(
        std::memory_order_seq_cst);
  }

  /// Dead with no recovery path left (not recoverable: the spare pool is
  /// exhausted or was never there) — the rank's frames and completion
  /// ticks will never arrive. False without an attached world.
  bool rank_permanently_dead(int rank) const;

  /// Fired on every committed shrink (any thread may win the resolving
  /// CAS): the healed rank, its task at death, the epoch's begin CPI, and
  /// the commit timestamp (WallTimer base, for MTTR against
  /// World::death_time). Must be nonblocking.
  using ShrinkCallback =
      std::function<void(int rank, int task, index_t begin_cpi,
                         double commit_time)>;

  /// Enable shrink-to-survivors healing: when a rank of a migratable group
  /// dies permanently (dead and not recoverable — the spare pool is
  /// exhausted or absent), the coordinator's policy tick proposes removing
  /// it from its group under the same two-phase barrier protocol. Shrinks
  /// bypass max_migrations (they are repairs, not optimizations).
  void set_shrink(bool enabled, ShrinkCallback on_commit = nullptr);

  /// Ranks healed by a committed shrink so far (for uncovered accounting).
  std::vector<int> shrunk_ranks() const;

  /// Records an attempt still pending when the stream drained (e.g. every
  /// participant died first) as rolled back, reason "unresolved_at_exit".
  /// Call after the stream drains.
  void finish();

 private:
  struct Epoch {
    index_t begin_cpi = 0;
    Topology topology;
  };

  enum Outcome : int { kPending = 0, kCommitted = 1, kRolledBack = 2 };

  struct Proposal {
    int attempt = 0;
    index_t barrier_cpi = 0;
    stap::Task donor{};
    stap::Task recipient{};
    int migrating_rank = -1;
    /// Shrink-to-survivors repair: `migrating_rank` is the (dead) rank
    /// being removed rather than a live rank changing groups. Participants
    /// learn the flavour through the shared pending pointer.
    bool shrink = false;
    const char* trigger = "";  ///< "policy" | "overload" | "forced" | "shrink"
    double proposed_at = 0.0;  ///< WallTimer stamp; the span's start
    Topology next;
    std::uint64_t next_checksum = 0;
    std::atomic<int> outcome{kPending};
  };

  bool propose(index_t cpi, stap::Task donor, stap::Task recipient,
               const char* trigger);
  /// Propose removing a permanently dead rank from its group. Returns true
  /// when a barrier was raised.
  bool propose_shrink(index_t cpi, int dead_rank);
  /// Coordinator-side scan for permanent deaths needing a shrink.
  void shrink_tick(index_t cpi);
  void participate(comm::Comm& c, Proposal& p);
  void collect_votes(comm::Comm& c, Proposal& p);
  void await_verdict(comm::Comm& c, Proposal& p);
  /// CAS to `outcome`; the winner records the attempt (and, on commit,
  /// publishes the new epoch). Returns the resolved outcome.
  int resolve(Proposal& p, int outcome, const char* reason);
  void record_outcome(const Proposal& p, int outcome, const char* reason);
  void publish_epoch(const Proposal& p);
  void wait_epoch_covering(index_t cpi);
  bool any_rank_dead() const;

  comm::World* world_;
  stap::StapParams params_;
  ElasticConfig cfg_;
  index_t n_cpis_;
  EventLog& log_;
  int total_ranks_;
  int coordinator_rank_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Epoch storage never reallocates (capacity reserved up front) so
  /// topo() readers index it lock-free against concurrent publishes.
  std::vector<Epoch> epochs_;
  std::atomic<size_t> epoch_count_{0};
  size_t epoch_capacity_ = 0;

  std::deque<Proposal> proposals_;            // stable addresses
  std::atomic<Proposal*> pending_{nullptr};   // the unresolved attempt

  /// Highest CPI each rank has reached (top-of-loop), for barrier safety.
  std::vector<std::atomic<index_t>> progress_;
  /// Latest attempt id each rank has voted in (no double voting; a rank
  /// that first observes a proposal after its barrier still joins at its
  /// next CPI, which the Dekker re-check makes impossible to need).
  std::vector<std::atomic<int>> voted_;

  std::atomic<bool> overload_assist_{false};
  std::atomic<int> committed_{0};
  bool shrink_enabled_ = false;
  ShrinkCallback shrink_callback_;
  /// Ranks already healed (or being healed) by a shrink, so the scan does
  /// not re-propose while the epoch is still ahead of the coordinator's
  /// CPI. Guarded by mu_.
  std::vector<int> shrunk_ranks_;
  /// Next unconsumed cfg_.forced entry. Atomic because barrier_point()
  /// reads it from every rank to hold the pipeline at an unproposed
  /// entry's trigger CPI (see the determinism note there).
  std::atomic<size_t> next_forced_{0};
  index_t last_barrier_cpi_ = -1;
  index_t cooldown_until_ = -1;
  // Two-tick hysteresis memory for the policy loop.
  int last_candidate_donor_ = -1;
  int last_candidate_recipient_ = -1;
  index_t last_eval_cpi_ = -1;
};

}  // namespace ppstap::core
