#include "core/elastic.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>
#include <utility>

#include "comm/world.hpp"
#include "common/check.hpp"
#include "common/checksum.hpp"
#include "common/timer.hpp"
#include "core/tags.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"

namespace ppstap::core {

namespace {

using stap::Task;

// Policy cadence and amortization window, in CPIs: the predicted per-CPI
// gain is credited over this many CPIs and must exceed the expected
// quiesce stall.
constexpr int kHorizonCpis = 8;
// Cap on committed optimization migrations per run (forced migrations and
// shrinks bypass it).
constexpr int kMaxMigrations = 1;
// Barrier distance ahead of the fastest rank's observed progress.
constexpr index_t kBarrierMargin = 2;
// Minimum predicted throughput gain fraction for a policy migration.
constexpr double kMinGainFraction = 0.05;
// CPIs the policy stays quiet after a rolled-back attempt.
constexpr int kCooldownCpis = 16;

int vote_tag(index_t barrier_cpi) { return tag_for(barrier_cpi, kVoteSlot); }
int verdict_tag(index_t barrier_cpi) {
  return tag_for(barrier_cpi, kVerdictSlot);
}

struct VotePayload {
  std::int32_t rank = -1;
  std::int32_t attempt = -1;
  std::int64_t barrier_cpi = -1;
  std::uint64_t topo_checksum = 0;
};

struct VerdictPayload {
  std::int32_t attempt = -1;
  std::int32_t committed = 0;
  std::int64_t barrier_cpi = -1;
};

void rebuild_partitions(Topology& t, const stap::StapParams& p) {
  using cube::BlockPartition;
  t.part_k = BlockPartition(p.num_range, t.count(Task::kDopplerFilter));
  t.part_ewt = BlockPartition(p.num_easy(), t.count(Task::kEasyWeight));
  t.part_hwu = BlockPartition(p.num_hard * p.num_segments,
                              t.count(Task::kHardWeight));
  t.part_ebf = BlockPartition(p.num_easy(), t.count(Task::kEasyBeamform));
  t.part_hbf = BlockPartition(p.num_hard, t.count(Task::kHardBeamform));
  t.part_pc = BlockPartition(p.num_pulses, t.count(Task::kPulseCompression));
  t.part_cfar = BlockPartition(p.num_pulses, t.count(Task::kCfar));
}

}  // namespace

bool task_migratable(Task t) {
  return t == Task::kDopplerFilter || t == Task::kPulseCompression ||
         t == Task::kCfar;
}

Topology Topology::initial(const stap::StapParams& p,
                           const NodeAssignment& a) {
  Topology t;
  t.assign = a;
  int next = 0;
  for (size_t task = 0; task < static_cast<size_t>(stap::kNumTasks); ++task)
    for (int l = 0; l < a.nodes[task]; ++l) t.ranks[task].push_back(next++);
  rebuild_partitions(t, p);
  return t;
}

Topology Topology::migrated(const stap::StapParams& p, Task donor,
                            Task recipient) const {
  PPSTAP_REQUIRE(donor != recipient, "donor and recipient must differ");
  PPSTAP_REQUIRE(task_migratable(donor) && task_migratable(recipient),
                 "only the stateless per-CPI tasks migrate");
  PPSTAP_REQUIRE(count(donor) >= 2, "donor must keep at least one rank");
  Topology t = *this;
  auto& from = t.ranks[static_cast<size_t>(donor)];
  const int mover = from.back();
  from.pop_back();
  t.ranks[static_cast<size_t>(recipient)].push_back(mover);
  t.assign.nodes[static_cast<size_t>(donor)] -= 1;
  t.assign.nodes[static_cast<size_t>(recipient)] += 1;
  rebuild_partitions(t, p);
  return t;
}

Topology Topology::shrunk(const stap::StapParams& p, int dead_rank) const {
  const Role role = role_of(dead_rank);
  PPSTAP_REQUIRE(task_migratable(role.task),
                 "only the stateless per-CPI task groups can shrink");
  PPSTAP_REQUIRE(count(role.task) >= 2,
                 "shrinking group must keep at least one rank");
  Topology t = *this;
  auto& group = t.ranks[static_cast<size_t>(role.task)];
  group.erase(group.begin() + role.local);
  t.assign.nodes[static_cast<size_t>(role.task)] -= 1;
  rebuild_partitions(t, p);
  return t;
}

int Topology::total() const {
  int n = 0;
  for (const auto& group : ranks) n += static_cast<int>(group.size());
  return n;
}

Topology::Role Topology::role_of(int global_rank) const {
  for (size_t task = 0; task < ranks.size(); ++task) {
    const auto& group = ranks[task];
    for (size_t local = 0; local < group.size(); ++local)
      if (group[local] == global_rank)
        return Role{static_cast<Task>(task), static_cast<int>(local)};
  }
  PPSTAP_CHECK(false, "rank not present in topology");
  return Role{};
}

std::uint64_t Topology::checksum() const {
  std::vector<std::int64_t> words;
  for (size_t task = 0; task < ranks.size(); ++task) {
    words.push_back(assign.nodes[task]);
    for (int r : ranks[task]) words.push_back(r);
  }
  return checksum_of(std::span<const std::int64_t>(words));
}

void ElasticConfig::validate() const {
  PPSTAP_REQUIRE(stall_budget_seconds > 0.0,
                 "elastic stall budget must be positive");
  for (const ForcedMigration& f : forced) {
    PPSTAP_REQUIRE(f.at_cpi >= 0, "forced migration CPI must be >= 0");
    PPSTAP_REQUIRE(f.donor != f.recipient &&
                       task_migratable(f.donor) && task_migratable(f.recipient),
                   "forced migration must move between distinct migratable "
                   "task groups");
  }
}

ElasticEngine::ElasticEngine(comm::World* world, const stap::StapParams& p,
                             Topology initial, ElasticConfig cfg,
                             index_t n_cpis, EventLog& log)
    : world_(world),
      params_(p),
      cfg_(std::move(cfg)),
      n_cpis_(n_cpis),
      log_(log),
      total_ranks_(initial.total()),
      coordinator_rank_(initial.rank_at(Task::kDopplerFilter, 0)) {
  cfg_.validate();
  PPSTAP_REQUIRE(n_cpis_ >= 1, "elastic engine needs a nonempty stream");
  // Headroom covers the optimization migrations plus, in the worst case,
  // one shrink epoch per topology rank.
  epoch_capacity_ = cfg_.forced.size() +
                    static_cast<size_t>(kMaxMigrations) + 8 +
                    static_cast<size_t>(total_ranks_);
  epochs_.reserve(epoch_capacity_);
  epochs_.push_back(Epoch{0, std::move(initial)});
  epoch_count_.store(1, std::memory_order_release);
  progress_ = std::vector<std::atomic<index_t>>(
      static_cast<size_t>(total_ranks_));
  for (auto& x : progress_) x.store(-1, std::memory_order_relaxed);
  voted_ = std::vector<std::atomic<int>>(static_cast<size_t>(total_ranks_));
  for (auto& v : voted_) v.store(-1, std::memory_order_relaxed);
}

const Topology& ElasticEngine::topo(index_t cpi) const {
  const size_t n = epoch_count_.load(std::memory_order_acquire);
  for (size_t i = n; i-- > 1;)
    if (epochs_[i].begin_cpi <= cpi) return epochs_[i].topology;
  return epochs_[0].topology;
}

const Topology& ElasticEngine::final_topology() const {
  return topo(n_cpis_ - 1);
}


const Topology& ElasticEngine::barrier_point(comm::Comm& c, index_t cpi) {
  const int rank = c.rank();
  // Forced migrations promise determinism (tests/benches), so no rank may
  // run past an unproposed entry's trigger CPI: a fast pipeline could
  // otherwise push every rank's progress beyond the last legal barrier
  // slot before the coordinator even ticks, and the entry would be
  // silently unplaceable. The coordinator is exempt (it must reach the
  // trigger to propose), and the hold is bounded by the stall budget so a
  // dead coordinator cannot wedge the stream.
  if (rank != coordinator_rank_ && !cfg_.forced.empty()) {
    const double give_up = WallTimer::now() + cfg_.stall_budget_seconds;
    for (;;) {
      const size_t nf = next_forced_.load(std::memory_order_acquire);
      if (nf >= cfg_.forced.size() || cpi <= cfg_.forced[nf].at_cpi) break;
      if (WallTimer::now() >= give_up) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  // seq_cst store/load pair against propose()'s publish + re-check: either
  // this rank sees the pending proposal here, or the coordinator sees this
  // progress already at/past the barrier and rolls the attempt back.
  progress_[static_cast<size_t>(rank)].store(cpi, std::memory_order_seq_cst);
  Proposal* p = pending_.load(std::memory_order_seq_cst);
  if (p != nullptr && cpi >= p->barrier_cpi &&
      p->outcome.load(std::memory_order_acquire) == kPending) {
    if (voted_[static_cast<size_t>(rank)].load(std::memory_order_relaxed) <
        p->attempt) {
      voted_[static_cast<size_t>(rank)].store(p->attempt,
                                              std::memory_order_relaxed);
      participate(c, *p);
    } else if (rank != coordinator_rank_) {
      // A spare-revived incarnation of a participant whose corpse died
      // inside the window after marking its vote. Whether that vote was
      // delivered is the coordinator's problem (a missing one times the
      // attempt out); this rank must still hold at the barrier for the
      // verdict — sailing past with the pre-commit topology while the
      // commit re-partitions its peers would desynchronize the epochs.
      await_verdict(c, *p);
    }
  }
  return topo(cpi);
}

void ElasticEngine::participate(comm::Comm& c, Proposal& p) {
  // The vote tells the coordinator this rank quiesced at B and agrees on
  // the candidate topology before anything commits.
  if (c.rank() == coordinator_rank_) {
    collect_votes(c, p);
    return;
  }
  const VotePayload vote{static_cast<std::int32_t>(c.rank()),
                         static_cast<std::int32_t>(p.attempt),
                         static_cast<std::int64_t>(p.barrier_cpi),
                         p.next.checksum()};
  c.send<VotePayload>(coordinator_rank_, vote_tag(p.barrier_cpi),
                      std::span<const VotePayload>(&vote, 1));
  await_verdict(c, p);
}

void ElasticEngine::collect_votes(comm::Comm& c, Proposal& p) {
  const double deadline = WallTimer::now() + cfg_.stall_budget_seconds;
  const char* reason = nullptr;
  // A live-rank migration aborts if the mover died; a shrink aborts if its
  // target came back to life (a late spare takeover raced the proposal).
  if (world_ != nullptr && !p.shrink && world_->rank_dead(p.migrating_rank))
    reason = "migrating_rank_dead";
  if (world_ != nullptr && p.shrink && !world_->rank_dead(p.migrating_rank))
    reason = "shrink_target_alive";
  for (int r = 0; reason == nullptr && r < total_ranks_; ++r) {
    if (r == c.rank()) continue;
    // The shrink target is dead by construction: no vote will ever come.
    if (p.shrink && r == p.migrating_rank) continue;
    const double remaining = std::max(1e-3, deadline - WallTimer::now());
    comm::RecvResult res =
        c.recv_bytes_for(r, vote_tag(p.barrier_cpi), remaining);
    if (!res.ok()) {
      reason = res.status == comm::RecvStatus::kPeerDead ? "vote_peer_dead"
               : res.status == comm::RecvStatus::kCorrupt ? "vote_corrupt"
                                                          : "vote_timeout";
      break;
    }
    const comm::FrameView<VotePayload> votes(std::move(res.bytes));
    if (votes.size() != 1 || votes[0].rank != r ||
        votes[0].attempt != p.attempt ||
        votes[0].barrier_cpi != static_cast<std::int64_t>(p.barrier_cpi) ||
        votes[0].topo_checksum != p.next_checksum)
      reason = "vote_mismatch";
  }
  // A rank that died after voting would leave a committed topology with a
  // dead member; re-check liveness right before the commit point. For a
  // shrink the target must (still) be dead instead.
  if (reason == nullptr && world_ != nullptr) {
    if (!p.shrink && world_->rank_dead(p.migrating_rank))
      reason = "migrating_rank_dead";
    if (p.shrink && !world_->rank_dead(p.migrating_rank))
      reason = "shrink_target_alive";
  }
  const int out = resolve(p, reason == nullptr ? kCommitted : kRolledBack,
                          reason == nullptr ? "" : reason);
  const VerdictPayload verdict{static_cast<std::int32_t>(p.attempt),
                               out == kCommitted ? 1 : 0,
                               static_cast<std::int64_t>(p.barrier_cpi)};
  for (int r = 0; r < total_ranks_; ++r) {
    if (r == c.rank()) continue;
    if (p.shrink && r == p.migrating_rank) continue;
    c.send<VerdictPayload>(r, verdict_tag(p.barrier_cpi),
                           std::span<const VerdictPayload>(&verdict, 1));
  }
}

void ElasticEngine::await_verdict(comm::Comm& c, Proposal& p) {
  // Twice the vote budget plus margin: the coordinator itself waits up to
  // one budget for the slowest voter before it can possibly answer.
  const double budget = 2.0 * cfg_.stall_budget_seconds + 1.0;
  comm::RecvResult res =
      c.recv_bytes_for(coordinator_rank_, verdict_tag(p.barrier_cpi), budget);
  int out;
  if (res.ok()) {
    const comm::FrameView<VerdictPayload> verdicts(std::move(res.bytes));
    if (verdicts.size() == 1 && verdicts[0].attempt == p.attempt) {
      // The coordinator resolved before sending; this CAS can only read.
      out = resolve(p, verdicts[0].committed != 0 ? kCommitted : kRolledBack,
                    verdicts[0].committed != 0 ? "" : "coordinator_abort");
    } else {
      out = resolve(p, kRolledBack, "verdict_mismatch");
    }
  } else {
    const char* reason =
        res.status == comm::RecvStatus::kPeerDead    ? "coordinator_dead"
        : res.status == comm::RecvStatus::kCorrupt ? "verdict_corrupt"
                                                   : "verdict_timeout";
    out = resolve(p, kRolledBack, reason);
  }
  if (out == kCommitted) wait_epoch_covering(p.barrier_cpi);
}

int ElasticEngine::resolve(Proposal& p, int outcome, const char* reason) {
  int expected = kPending;
  if (!p.outcome.compare_exchange_strong(expected, outcome,
                                         std::memory_order_acq_rel)) {
    return expected;  // someone else already resolved the attempt
  }
  // CAS winner publishes the result for everyone. On commit the epoch goes
  // out first, with no comm operation (hence no injectable kill) between
  // the CAS and the publish: a rank that reads kCommitted is guaranteed a
  // bounded wait for the epoch.
  const double commit_time = WallTimer::now();
  if (outcome == kCommitted) {
    publish_epoch(p);
    if (!p.shrink) committed_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (outcome != kCommitted) {
      cooldown_until_ = p.barrier_cpi + kCooldownCpis;
      // A rolled-back shrink may be re-proposed at the next tick.
      if (p.shrink)
        shrunk_ranks_.erase(std::remove(shrunk_ranks_.begin(),
                                        shrunk_ranks_.end(),
                                        p.migrating_rank),
                            shrunk_ranks_.end());
    }
  }
  if (outcome == kCommitted && p.shrink && shrink_callback_)
    shrink_callback_(p.migrating_rank, static_cast<int>(p.donor),
                     p.barrier_cpi, commit_time);
  Proposal* expect_p = &p;
  pending_.compare_exchange_strong(expect_p, nullptr);
  cv_.notify_all();
  // A rollback also arms the flight recorder (the kind table says so).
  record_outcome(p, outcome, reason);
  return outcome;
}

void ElasticEngine::record_outcome(const Proposal& p, int outcome,
                                   const char* reason) {
  Event e{outcome != kCommitted ? EventKind::kMigrationRollback
          : p.shrink            ? EventKind::kShrinkCommit
                                : EventKind::kMigrationCommit};
  e.time = WallTimer::now();
  e.rank = p.migrating_rank;
  e.task = static_cast<int>(p.donor);
  e.cpi = p.barrier_cpi;
  e.cause = p.trigger;
  e.seconds = e.time - p.proposed_at;
  e.peer = p.shrink ? -1 : static_cast<int>(p.recipient);
  e.note = reason;
  log_.record(e);
}

void ElasticEngine::finish() {
  Proposal* p = pending_.load(std::memory_order_acquire);
  if (p == nullptr) return;
  int expected = kPending;
  if (p->outcome.compare_exchange_strong(expected, kRolledBack,
                                         std::memory_order_acq_rel))
    record_outcome(*p, kRolledBack, "unresolved_at_exit");
}

void ElasticEngine::publish_epoch(const Proposal& p) {
  std::lock_guard<std::mutex> lock(mu_);
  PPSTAP_CHECK(epochs_.size() < epoch_capacity_,
               "elastic epoch capacity exhausted");
  epochs_.push_back(Epoch{p.barrier_cpi, p.next});
  epoch_count_.store(epochs_.size(), std::memory_order_release);
  cv_.notify_all();
}

void ElasticEngine::wait_epoch_covering(index_t cpi) {
  std::unique_lock<std::mutex> lock(mu_);
  const bool ok =
      cv_.wait_for(lock, std::chrono::seconds(30), [&] {
        return !epochs_.empty() && epochs_.back().begin_cpi >= cpi;
      });
  PPSTAP_CHECK(ok, "committed migration epoch was never published");
}

bool ElasticEngine::any_rank_dead() const {
  if (world_ == nullptr) return false;
  for (int r = 0; r < total_ranks_; ++r)
    if (world_->rank_dead(r)) return true;
  return false;
}

bool ElasticEngine::rank_permanently_dead(int rank) const {
  return world_ != nullptr && world_->rank_lost(rank);
}

void ElasticEngine::set_shrink(bool enabled, ShrinkCallback on_commit) {
  std::lock_guard<std::mutex> lock(mu_);
  shrink_enabled_ = enabled;
  shrink_callback_ = std::move(on_commit);
}

std::vector<int> ElasticEngine::shrunk_ranks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shrunk_ranks_;
}

void ElasticEngine::shrink_tick(index_t cpi) {
  if (!shrink_enabled_ || world_ == nullptr) return;
  if (pending_.load(std::memory_order_relaxed) != nullptr) return;
  // Scan the current topology for permanent deaths (dead and no longer
  // recoverable: the spare pool is exhausted or was never there). A rank
  // already healed by a committed shrink is gone from topo(cpi) once the
  // coordinator's CPI passes the epoch boundary; the shrunk_ranks_ mark
  // covers the window before that.
  const Topology& cur = topo(cpi);
  for (size_t task = 0; task < cur.ranks.size(); ++task) {
    for (const int r : cur.ranks[task]) {
      if (!world_->rank_lost(r)) continue;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (std::find(shrunk_ranks_.begin(), shrunk_ranks_.end(), r) !=
            shrunk_ranks_.end())
          continue;
      }
      if (propose_shrink(cpi, r)) return;
    }
  }
}

bool ElasticEngine::propose_shrink(index_t cpi, int dead_rank) {
  std::unique_lock<std::mutex> lock(mu_);
  if (pending_.load(std::memory_order_relaxed) != nullptr) return false;
  const Topology& cur = epochs_.back().topology;
  bool present = false;
  Task task = Task::kDopplerFilter;
  for (size_t t = 0; t < cur.ranks.size() && !present; ++t) {
    for (const int r : cur.ranks[t]) {
      if (r != dead_rank) continue;
      present = true;
      task = static_cast<Task>(t);
      break;
    }
  }
  if (!present) return false;
  if (!task_migratable(task) || cur.count(task) < 2) return false;
  Topology candidate;
  try {
    candidate = cur.shrunk(params_, dead_rank);
    candidate.assign.validate(params_);
  } catch (const Error&) {
    return false;
  }
  index_t max_progress = -1;
  for (const auto& x : progress_)
    max_progress = std::max(max_progress, x.load(std::memory_order_seq_cst));
  index_t barrier = std::max(max_progress, cpi) + kBarrierMargin;
  barrier = std::max(barrier, last_barrier_cpi_ + 1);
  if (barrier > n_cpis_ - 2) return false;
  proposals_.emplace_back();
  Proposal& p = proposals_.back();
  p.attempt = static_cast<int>(proposals_.size()) - 1;
  p.barrier_cpi = barrier;
  p.donor = task;
  p.recipient = task;
  p.migrating_rank = dead_rank;
  p.shrink = true;
  p.trigger = "shrink";
  p.proposed_at = WallTimer::now();
  p.next = std::move(candidate);
  p.next_checksum = p.next.checksum();
  last_barrier_cpi_ = barrier;
  shrunk_ranks_.push_back(dead_rank);
  lock.unlock();
  pending_.store(&p, std::memory_order_seq_cst);
  // Same Dekker re-check as propose(): only live ranks advance progress,
  // and the barrier was placed ahead of every recorded position.
  for (const auto& x : progress_) {
    if (x.load(std::memory_order_seq_cst) >= barrier) {
      resolve(p, kRolledBack, "barrier_raced");
      return false;
    }
  }
  return true;
}

bool ElasticEngine::request_overload_assist() {
  if (committed_.load(std::memory_order_relaxed) >= kMaxMigrations)
    return false;
  overload_assist_.store(true, std::memory_order_release);
  log_.record({EventKind::kElasticAssist});
  return true;
}

bool ElasticEngine::propose(index_t cpi, Task donor, Task recipient,
                            const char* trigger) {
  std::unique_lock<std::mutex> lock(mu_);
  if (pending_.load(std::memory_order_relaxed) != nullptr) return false;
  if (donor == recipient || !task_migratable(donor) ||
      !task_migratable(recipient))
    return false;
  const Topology& cur = epochs_.back().topology;
  if (cur.count(donor) < 2) return false;
  if (any_rank_dead()) return false;
  Topology candidate;
  try {
    candidate = cur.migrated(params_, donor, recipient);
    candidate.assign.validate(params_);
  } catch (const Error&) {
    return false;
  }
  index_t max_progress = -1;
  for (const auto& x : progress_)
    max_progress = std::max(max_progress, x.load(std::memory_order_seq_cst));
  index_t barrier = std::max(max_progress, cpi) + kBarrierMargin;
  barrier = std::max(barrier, last_barrier_cpi_ + 1);
  // Need the barrier strictly inside the stream: every rank must still
  // pass through it, and at least one post-migration CPI must exist.
  if (barrier > n_cpis_ - 2) return false;
  const int migrating = cur.ranks[static_cast<size_t>(donor)].back();
  proposals_.emplace_back();
  Proposal& p = proposals_.back();
  p.attempt = static_cast<int>(proposals_.size()) - 1;
  p.barrier_cpi = barrier;
  p.donor = donor;
  p.recipient = recipient;
  p.migrating_rank = migrating;
  p.trigger = trigger;
  p.proposed_at = WallTimer::now();
  p.next = std::move(candidate);
  p.next_checksum = p.next.checksum();
  last_barrier_cpi_ = barrier;
  lock.unlock();
  pending_.store(&p, std::memory_order_seq_cst);
  // Dekker re-check against barrier_point: any rank already at/past the
  // barrier might have missed the publish — roll back immediately rather
  // than risk a half-joined barrier.
  for (const auto& x : progress_) {
    if (x.load(std::memory_order_seq_cst) >= barrier) {
      resolve(p, kRolledBack, "barrier_raced");
      return false;
    }
  }
  return true;
}

void ElasticEngine::policy_tick(comm::Comm& c, index_t cpi) {
  if (c.rank() != coordinator_rank_) return;
  // Repairs outrank optimizations: a permanent death in a migratable group
  // raises a shrink barrier before any policy/forced/assist proposal.
  shrink_tick(cpi);
  if (pending_.load(std::memory_order_relaxed) != nullptr) return;
  // Deterministic forced migrations (tests/benches) fire first, in order.
  if (next_forced_ < cfg_.forced.size() &&
      cpi >= cfg_.forced[next_forced_].at_cpi) {
    const ForcedMigration f = cfg_.forced[next_forced_++];
    propose(cpi, f.donor, f.recipient, "forced");
    return;
  }
  if (committed_.load(std::memory_order_relaxed) >= kMaxMigrations)
    return;
  if (overload_assist_.exchange(false, std::memory_order_acq_rel)) {
    // Overload rung: migrate toward the gating group before degrading
    // further. The ladder already established the system is saturated, so
    // the min-gain gate is bypassed; structural validity still applies.
    Task recipient = Task::kDopplerFilter;
    const auto spans = obs::snapshot();
    if (!spans.empty()) {
      const obs::BottleneckReport rep = obs::analyze_spans(spans);
      if (rep.valid && rep.gating_task >= 0 &&
          task_migratable(static_cast<Task>(rep.gating_task)))
        recipient = static_cast<Task>(rep.gating_task);
    }
    Task donor = recipient;
    int best = 1;
    const Topology& cur = topo(cpi);
    for (int t = 0; t < stap::kNumTasks; ++t) {
      const Task cand = static_cast<Task>(t);
      if (cand == recipient || !task_migratable(cand)) continue;
      if (cur.count(cand) > best) {
        best = cur.count(cand);
        donor = cand;
      }
    }
    if (donor != recipient) propose(cpi, donor, recipient, "overload");
    return;
  }
  if (!cfg_.enabled) return;
  if (last_eval_cpi_ >= 0 && cpi - last_eval_cpi_ < kHorizonCpis) return;
  last_eval_cpi_ = cpi;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cpi < cooldown_until_) return;
  }
  const auto spans = obs::snapshot();
  if (spans.empty()) return;
  const obs::BottleneckReport rep = obs::analyze_spans(spans);
  if (!rep.valid || rep.gating_task < 0 || rep.period <= 0.0 ||
      rep.predicted_throughput <= rep.throughput_estimate)
    return;
  const Task recipient = static_cast<Task>(rep.gating_task);
  if (!task_migratable(recipient)) return;
  // Donor: the migratable non-gating group with the most slack (equation-1
  // headroom) that can spare a rank.
  const Topology& cur = topo(cpi);
  int donor = -1;
  double donor_slack = -1.0;
  for (const obs::StageStat& st : rep.stages) {
    const Task cand = static_cast<Task>(st.task);
    if (cand == recipient || !task_migratable(cand)) continue;
    if (cur.count(cand) < 2) continue;
    if (st.slack > donor_slack) {
      donor_slack = st.slack;
      donor = st.task;
    }
  }
  if (donor < 0) return;
  // Amortization gate: predicted per-CPI gain credited over the horizon
  // must exceed the expected quiesce stall (one pipeline drain, estimated
  // by the stitched mean latency).
  const double period_pred = 1.0 / rep.predicted_throughput;
  const double gain_fraction =
      rep.predicted_throughput / rep.throughput_estimate - 1.0;
  if (gain_fraction < kMinGainFraction) return;
  const double stall_estimate =
      rep.mean_latency > 0.0 ? rep.mean_latency : 4.0 * rep.period;
  const double benefit = kHorizonCpis * (rep.period - period_pred);
  if (benefit <= stall_estimate) return;
  // Two-tick hysteresis (like the overload ladder): the same verdict must
  // hold across two consecutive evaluations before a barrier is raised.
  if (last_candidate_donor_ != donor ||
      last_candidate_recipient_ != rep.gating_task) {
    last_candidate_donor_ = donor;
    last_candidate_recipient_ = rep.gating_task;
    return;
  }
  last_candidate_donor_ = -1;
  last_candidate_recipient_ = -1;
  propose(cpi, static_cast<Task>(donor), recipient, "policy");
}

}  // namespace ppstap::core
