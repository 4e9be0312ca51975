#include "comm/world.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "comm/fault.hpp"
#include "common/backoff.hpp"
#include "common/checksum.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace ppstap::comm {

namespace {

using Clock = WallTimer::clock;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Deterministically flip one byte of a nonempty payload.
void corrupt_copy(Bytes& bytes, std::uint64_t salt) {
  const std::size_t idx =
      static_cast<std::size_t>(salt * 0x9e3779b97f4a7c15ull % bytes.size());
  bytes[idx] ^= std::byte{0x40};
}

/// The histogram bucket for a frame's tag: data edges map to their slot,
/// everything else (protocol slots, test traffic, negative tags) shares the
/// last bucket.
int retry_bucket(int tag) {
  const int slot = tag % kTagStride;
  return slot >= 0 && slot < kRetryEdgeBuckets - 1 ? slot
                                                   : kRetryEdgeBuckets - 1;
}

}  // namespace

struct World::Frame {
  int src = -1;
  int tag = 0;
  /// Per-(src, dest) ordinal, assigned under the destination mailbox lock.
  std::uint64_t seq = 0;
  /// Checksum of the payload as sent (before any injected corruption).
  std::uint64_t checksum = 0;
  /// Zero-payload control marker (Comm::send_marker).
  bool marker = false;
  /// The frame is invisible to receivers before this instant (injected
  /// in-flight latency; frames are still delivered FIFO per (src, tag)).
  Clock::time_point deliver_at{};
  Bytes bytes;
  /// Uncorrupted original, kept only when a corrupt rule fired, so the
  /// receiver's retransmission path has something to refetch.
  Bytes pristine;
  /// Piggybacked causal trace context (never part of the payload bytes).
  FlowContext flow;
  bool has_flow = false;
};

struct World::Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Frame> frames;
  std::size_t buffered_bytes = 0;
  /// Next sequence number per source rank.
  std::vector<std::uint64_t> next_seq;
  /// Per-source set of seqs already delivered (or deliberately discarded):
  /// the receiver-side idempotence ledger. A frame arriving with a seq
  /// already in here is a re-delivery (kDuplicate injection) and is dropped
  /// with CommStats::dup_discarded instead of being consumed as the next
  /// message. A set rather than a high-water mark because frames of
  /// different tags are consumed out of seq order.
  std::vector<std::unordered_set<std::uint64_t>> delivered;
};

struct World::Shared {
  std::mutex mu;
  std::condition_variable cv;
  /// Atomic so mailbox cv predicates (which hold only the mailbox mutex)
  /// can read it race-free; writers still notify under each mutex so no
  /// wakeup is missed.
  std::atomic<bool> aborted{false};
  std::exception_ptr first_error;
  // Per-rank liveness. dead is atomic for the same reason as `aborted`;
  // claimed/death_time are only touched under mu.
  std::vector<std::atomic<bool>> dead;
  std::vector<char> claimed;
  std::vector<double> death_time;
  // Spare pool: members not yet taken over (atomic like `dead`; written
  // under mu) and the end-of-stream release (under mu).
  std::atomic<int> idle_spares{0};
  bool released = false;
};

World::World(int num_ranks, std::size_t mailbox_capacity_bytes)
    : num_ranks_(num_ranks),
      capacity_(mailbox_capacity_bytes),
      shared_(std::make_unique<Shared>()) {
  PPSTAP_REQUIRE(num_ranks >= 1, "world needs at least one rank");
  boxes_.reserve(static_cast<size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    boxes_.push_back(std::make_unique<Mailbox>());
    boxes_.back()->next_seq.assign(static_cast<size_t>(num_ranks), 0);
    boxes_.back()->delivered.resize(static_cast<size_t>(num_ranks));
  }
  shared_->dead = std::vector<std::atomic<bool>>(static_cast<size_t>(num_ranks));
  shared_->claimed.assign(static_cast<size_t>(num_ranks), 0);
  shared_->death_time.assign(static_cast<size_t>(num_ranks), 0.0);
}

World::~World() = default;

void World::set_spare_pool(int spares) {
  PPSTAP_REQUIRE(spares >= 0 && spares < num_ranks_,
                 "spare pool must leave at least one rank outside it");
  pool_size_ = spares;
  shared_->idle_spares.store(spares, std::memory_order_release);
}

int World::idle_spares() const {
  return shared_->idle_spares.load(std::memory_order_acquire);
}

void World::release_spares() {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->released = true;
  }
  shared_->cv.notify_all();
}

bool World::rank_dead(int rank) const {
  PPSTAP_REQUIRE(rank >= 0 && rank < num_ranks_, "invalid rank");
  return shared_->dead[static_cast<size_t>(rank)].load(
      std::memory_order_acquire);
}

bool World::rank_recoverable(int rank) const {
  PPSTAP_REQUIRE(rank >= 0 && rank < num_ranks_, "invalid rank");
  return rank < num_ranks_ - pool_size_ && idle_spares() > 0;
}

bool World::rank_lost(int rank) const {
  const auto& dead = shared_->dead[static_cast<size_t>(rank)];
  if (!dead.load(std::memory_order_acquire)) return false;
  // The pool count is read before the liveness flag is read again:
  // take_over revives the rank before it drops the count, so a reader that
  // sees the dropped count also sees the revived rank alive.
  return !rank_recoverable(rank) && dead.load(std::memory_order_acquire);
}

double World::death_time(int rank) const {
  PPSTAP_REQUIRE(rank >= 0 && rank < num_ranks_, "invalid rank");
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->death_time[static_cast<size_t>(rank)];
}

void World::abort_world() {
  // Flight recorder: capture the span ring before the abort propagates and
  // every blocked rank starts throwing (no-op unless armed).
  obs::flight_dump("world_abort");
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->aborted.store(true, std::memory_order_release);
  }
  shared_->cv.notify_all();
  for (auto& box : boxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->cv.notify_all();
  }
}

void World::request_abort(const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (!shared_->first_error)
      shared_->first_error = std::make_exception_ptr(Error(why));
  }
  abort_world();
}

void World::mark_dead(int rank) {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->dead[static_cast<size_t>(rank)].store(true,
                                                   std::memory_order_release);
    shared_->death_time[static_cast<size_t>(rank)] = WallTimer::now();
  }
  shared_->cv.notify_all();
  for (auto& box : boxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->cv.notify_all();
  }
}

std::optional<int> World::wait_for_death(double timeout_seconds) {
  PPSTAP_REQUIRE(timeout_seconds >= 0.0, "timeout must be non-negative");
  const bool forever = std::isinf(timeout_seconds);
  const auto deadline =
      forever ? Clock::time_point::max()
              : Clock::now() + to_duration(timeout_seconds);
  std::unique_lock<std::mutex> lock(shared_->mu);
  for (;;) {
    if (shared_->aborted.load(std::memory_order_acquire))
      throw Error("comm world aborted during wait_for_death");
    if (shared_->released) return std::nullopt;
    for (int r = 0; r < num_ranks_; ++r) {
      const auto i = static_cast<size_t>(r);
      if (shared_->dead[i].load(std::memory_order_acquire) &&
          rank_recoverable(r) && !shared_->claimed[i]) {
        shared_->claimed[i] = 1;
        return r;
      }
    }
    if (forever) {
      shared_->cv.wait(lock);
    } else {
      if (Clock::now() >= deadline) return std::nullopt;
      shared_->cv.wait_until(lock, deadline);
    }
  }
}

void World::do_take_over(Comm& c, int dead_rank) {
  PPSTAP_REQUIRE(dead_rank >= 0 && dead_rank < num_ranks_, "invalid rank");
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    const auto i = static_cast<size_t>(dead_rank);
    PPSTAP_REQUIRE(shared_->claimed[i] &&
                       shared_->dead[i].load(std::memory_order_acquire),
                   "take_over requires a dead rank claimed via wait_for_death");
    shared_->dead[i].store(false, std::memory_order_release);
    shared_->claimed[i] = 0;  // a repeat death can be claimed again
    // One idle member fewer. The last one out makes every death permanent:
    // the notifies below wake receivers parked on a dead rank, and their
    // predicates now resolve to a prompt dead-peer status.
    shared_->idle_spares.fetch_sub(1, std::memory_order_acq_rel);
    c.rank_ = dead_rank;
  }
  shared_->cv.notify_all();
  for (auto& box : boxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->cv.notify_all();
  }
}

void World::run(const std::function<void(Comm&)>& fn) {
  // Reset cross-run state (the pool size is configuration and persists).
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->aborted.store(false, std::memory_order_release);
    shared_->first_error = nullptr;
    shared_->idle_spares.store(pool_size_, std::memory_order_release);
    shared_->released = false;
    for (int r = 0; r < num_ranks_; ++r) {
      const auto i = static_cast<size_t>(r);
      shared_->dead[i].store(false, std::memory_order_release);
      shared_->claimed[i] = 0;
      shared_->death_time[i] = 0.0;
    }
  }
  for (auto& box : boxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->frames.clear();
    box->buffered_bytes = 0;
    std::fill(box->next_seq.begin(), box->next_seq.end(), 0);
    for (auto& seen : box->delivered) seen.clear();
  }
  if (plan_) plan_->reset();

  std::vector<Comm> comms;
  comms.reserve(static_cast<size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) comms.push_back(Comm(this, r));

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) {
    threads.emplace_back([this, &fn, &comms, r] {
      try {
        fn(comms[static_cast<size_t>(r)]);
      } catch (const RankKilled& k) {
        // An injected kill is a per-rank death, not a world failure:
        // survivors observe peer-dead and may hand the rank to a spare.
        mark_dead(k.rank());
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(shared_->mu);
          if (!shared_->first_error)
            shared_->first_error = std::current_exception();
        }
        abort_world();
      }
    });
  }
  for (auto& t : threads) t.join();

  last_stats_.clear();
  last_stats_.reserve(static_cast<size_t>(num_ranks_));
  for (const auto& c : comms) last_stats_.push_back(c.stats());

  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    err = shared_->first_error;
  }
  if (err) std::rethrow_exception(err);
}

int Comm::size() const { return world_->size(); }

void Comm::send_bytes(int dest, int tag, Bytes&& bytes,
                      const FlowContext* flow) {
  world_->do_send(*this, dest, tag, std::move(bytes), /*marker=*/false, flow);
}

void Comm::send_bytes(int dest, int tag, std::span<const std::byte> bytes,
                      const FlowContext* flow) {
  Bytes owned(bytes.size());
  if (!bytes.empty()) std::memcpy(owned.data(), bytes.data(), bytes.size());
  world_->do_send(*this, dest, tag, std::move(owned), /*marker=*/false, flow);
}

void Comm::send_marker(int dest, int tag) {
  world_->do_send(*this, dest, tag, {}, /*marker=*/true, /*flow=*/nullptr);
}

Bytes Comm::recv_bytes(int src, int tag) {
  return world_->do_recv(*this, src, tag, /*timeout=*/nullptr).bytes;
}

RecvResult Comm::recv_bytes_for(int src, int tag, double timeout_seconds) {
  PPSTAP_REQUIRE(timeout_seconds >= 0.0, "timeout must be non-negative");
  return world_->do_recv(*this, src, tag, &timeout_seconds);
}

std::size_t Comm::discard(int src, int tag) {
  return world_->do_discard(*this, src, tag);
}

void Comm::take_over(int dead_rank) { world_->do_take_over(*this, dead_rank); }

void World::do_send(Comm& c, int dest, int tag, Bytes bytes,
                    bool marker, const FlowContext* flow) {
  PPSTAP_REQUIRE(dest >= 0 && dest < num_ranks_, "invalid destination rank");
  if (plan_ && plan_->kill_due(FaultPoint::kSend, c.rank(), dest, tag))
    throw RankKilled(c.rank());
  // The one pass over the payload, outside the lock: the buffer itself
  // moves into the mailbox. It is the sender's own work, so it precedes the
  // flow stamp.
  const std::uint64_t checksum = checksum_bytes(bytes);
  // Stamped before the mailbox lock so flow-control blocking is charged to
  // the frame's transport interval, like a congested interconnect.
  const double flow_sent = flow ? WallTimer::now() : 0.0;
  const auto di = static_cast<size_t>(dest);
  Mailbox& box = *boxes_[di];

  std::unique_lock<std::mutex> lock(box.mu);
  // Flow control: block while the mailbox is full, but always admit a
  // message into an empty mailbox so one oversized message cannot wedge.
  // Sends to a dead unrecoverable rank are black-holed, never blocked.
  const double wait_start = WallTimer::now();
  box.cv.wait(lock, [&] {
    if (shared_->aborted.load(std::memory_order_acquire)) return true;
    if (rank_lost(dest)) return true;
    return box.frames.empty() ||
           box.buffered_bytes + bytes.size() <= capacity_;
  });
  c.stats_.send_wait_seconds += WallTimer::now() - wait_start;
  if (shared_->aborted.load(std::memory_order_acquire))
    throw Error("comm world aborted during send");

  Frame f;
  f.src = c.rank();
  f.tag = tag;
  f.marker = marker;
  f.seq = box.next_seq[static_cast<size_t>(c.rank())]++;
  if (flow != nullptr) {
    f.flow = *flow;
    f.flow.sent_at = flow_sent;
    f.has_flow = true;
  }
  c.stats_.bytes_sent += bytes.size();
  c.stats_.messages_sent += 1;

  // Black hole: the destination is dead and nobody will revive it. The
  // sender pays for the bytes and moves on (a real interconnect cannot
  // block forever on a failed node either).
  if (rank_lost(dest)) return;
  if (plan_ && plan_->drop_due(f.src, dest, tag, f.seq)) return;

  f.checksum = checksum;
  f.bytes = std::move(bytes);
  f.deliver_at = Clock::now();
  if (plan_) {
    const double delay = plan_->delay_due(f.src, dest, tag, f.seq);
    if (delay > 0.0) f.deliver_at += to_duration(delay);
    if (!f.bytes.empty() &&
        plan_->corrupt_due(f.src, dest, tag, f.seq, /*attempt=*/0)) {
      f.pristine = f.bytes;
      corrupt_copy(f.bytes, f.seq);
    }
  }
  box.buffered_bytes += f.bytes.size();
  // kDuplicate: enqueue a second copy with the *same* seq (optionally
  // delayed further). The receiver's idempotence ledger must drop it; the
  // injected copy deliberately bypasses the seq allocator above.
  double dup_extra = 0.0;
  if (plan_ && plan_->duplicate_due(f.src, dest, tag, f.seq, &dup_extra)) {
    Frame dup = f;
    dup.deliver_at = f.deliver_at + to_duration(dup_extra);
    box.buffered_bytes += dup.bytes.size();
    box.frames.push_back(std::move(f));
    box.frames.push_back(std::move(dup));
  } else {
    box.frames.push_back(std::move(f));
  }
  lock.unlock();
  box.cv.notify_all();
}

std::optional<Bytes> World::finalize_frame(
    Comm& c, Frame&& f, bool allow_corrupt_failure) {
  // Runs with no locks held. A checksum mismatch (only possible under an
  // injected corruption) triggers the retransmission path: refetch the
  // sender-side pristine copy with jittered exponential backoff
  // (retry_delay, salted by (src, tag, seq) so seeded runs replay
  // identically); a corrupt rule may hit the refetched copy again (keyed by
  // attempt), bounded by the budget. On a deadline receive an exhausted
  // budget surfaces as a lost frame (RecvStatus::kCorrupt) so the caller
  // can shed the CPI instead of aborting the whole world.
  int attempt = 0;
  const std::uint64_t retry_salt =
      f.seq + (static_cast<std::uint64_t>(static_cast<std::uint32_t>(f.tag))
               << 24) +
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(f.src)) << 56);
  while (checksum_bytes(f.bytes) != f.checksum) {
    ++attempt;
    c.stats_.retransmissions += 1;
    if (attempt > kMaxRetransmitAttempts) {
      c.stats_.retry_histogram[static_cast<size_t>(retry_bucket(f.tag))]
                              [kMaxRetransmitAttempts] += 1;
      PPSTAP_CHECK(allow_corrupt_failure,
                   "frame corruption persisted past the retransmission budget");
      return std::nullopt;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(retry_delay(attempt, retry_salt)));
    f.bytes = f.pristine;
    if (plan_ && !f.bytes.empty() &&
        plan_->corrupt_due(f.src, c.rank(), f.tag, f.seq, attempt)) {
      corrupt_copy(f.bytes, f.seq + static_cast<std::uint64_t>(attempt));
    }
  }
  if (attempt > 0) {
    c.stats_.retry_histogram[static_cast<size_t>(retry_bucket(f.tag))]
                            [attempt - 1] += 1;
  }
  c.stats_.bytes_received += f.bytes.size();
  c.stats_.messages_received += 1;
  if (f.has_flow && obs::tracing_enabled()) {
    // One "xfer" flow span per delivered frame: [send start, consumption].
    // deliver_at (push time + injected delay) splits it into transport and
    // mailbox-queue residency.
    const double now = WallTimer::now();
    const double arrival = std::min(
        now,
        std::chrono::duration<double>(f.deliver_at.time_since_epoch()).count());
    obs::Span sp;
    sp.name = "xfer";
    sp.category = "flow";
    sp.rank = c.rank();
    sp.task = obs::kFlowTrack;
    sp.cpi = f.flow.cpi;
    sp.t_start = f.flow.sent_at;
    sp.t_end = now;
    sp.bytes = static_cast<std::int64_t>(f.bytes.size());
    sp.src_rank = f.src;
    sp.src_task = f.flow.task;
    sp.edge = f.flow.edge;
    sp.hop = f.flow.hop;
    sp.queue_s = std::max(0.0, now - std::max(arrival, f.flow.sent_at));
    obs::emit(sp);
  }
  return std::move(f.bytes);
}

void World::sweep_duplicates(Comm& c, Mailbox& box, int src,
                             std::uint64_t seq) {
  for (auto it = box.frames.begin(); it != box.frames.end();) {
    if (it->src == src && it->seq == seq) {
      box.buffered_bytes -= it->bytes.size();
      it = box.frames.erase(it);
      c.stats_.dup_discarded += 1;
    } else {
      ++it;
    }
  }
}

RecvResult World::do_recv(Comm& c, int src, int tag, const double* timeout) {
  PPSTAP_REQUIRE(src >= 0 && src < num_ranks_, "invalid source rank");
  if (plan_ && plan_->kill_due(FaultPoint::kRecv, src, c.rank(), tag))
    throw RankKilled(c.rank());
  const auto si = static_cast<size_t>(src);
  Mailbox& box = *boxes_[static_cast<size_t>(c.rank())];
  const auto deadline =
      timeout ? Clock::now() + to_duration(*timeout) : Clock::time_point::max();

  std::unique_lock<std::mutex> lock(box.mu);
  const double wait_start = WallTimer::now();
  for (;;) {
    if (shared_->aborted.load(std::memory_order_acquire)) {
      c.stats_.recv_wait_seconds += WallTimer::now() - wait_start;
      throw Error("comm world aborted during recv");
    }
    // FIFO per (src, tag): only the oldest matching frame is a candidate;
    // an injected delay on it also holds back its successors, like a
    // non-overtaking MPI channel. Re-delivered frames (seq already in the
    // idempotence ledger) are dropped in the scan, whatever their
    // deliver_at — a duplicate can never become the next message.
    auto match = box.frames.end();
    for (auto it = box.frames.begin(); it != box.frames.end();) {
      if (it->src == src && it->tag == tag) {
        if (box.delivered[si].count(it->seq) != 0) {
          box.buffered_bytes -= it->bytes.size();
          it = box.frames.erase(it);
          c.stats_.dup_discarded += 1;
          continue;
        }
        match = it;
        break;
      }
      ++it;
    }
    const auto now = Clock::now();
    if (match != box.frames.end() && match->deliver_at <= now) {
      Frame f = std::move(*match);
      box.delivered[si].insert(f.seq);
      box.buffered_bytes -= f.bytes.size();
      box.frames.erase(match);
      sweep_duplicates(c, box, src, f.seq);
      c.stats_.recv_wait_seconds += WallTimer::now() - wait_start;
      lock.unlock();
      box.cv.notify_all();  // wake senders blocked on capacity
      RecvResult r;
      r.marker = f.marker;
      auto bytes =
          finalize_frame(c, std::move(f), /*allow_corrupt_failure=*/
                         timeout != nullptr);
      if (!bytes) return RecvResult{RecvStatus::kCorrupt, false, {}};
      r.bytes = std::move(*bytes);
      return r;
    }
    if (rank_lost(src)) {
      // Mailbox drained of matches and the source can never produce more.
      c.stats_.recv_wait_seconds += WallTimer::now() - wait_start;
      if (timeout) return RecvResult{RecvStatus::kPeerDead, false, {}};
      throw Error("recv from rank " + std::to_string(src) +
                  " which died and is not recoverable");
    }
    if (now >= deadline) {
      c.stats_.recv_wait_seconds += WallTimer::now() - wait_start;
      // A recoverable death that no spare claimed within the deadline is
      // reported as peer-dead, not a mere timeout.
      return RecvResult{shared_->dead[si].load(std::memory_order_acquire)
                            ? RecvStatus::kPeerDead
                            : RecvStatus::kTimeout,
                        false,
                        {}};
    }
    auto wake = deadline;
    if (match != box.frames.end()) wake = std::min(wake, match->deliver_at);
    if (wake == Clock::time_point::max())
      box.cv.wait(lock);
    else
      box.cv.wait_until(lock, wake);
  }
}

std::size_t World::do_discard(Comm& c, int src, int tag) {
  PPSTAP_REQUIRE(src >= 0 && src < num_ranks_, "invalid source rank");
  Mailbox& box = *boxes_[static_cast<size_t>(c.rank())];
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(box.mu);
    for (auto it = box.frames.begin(); it != box.frames.end();) {
      if (it->src == src && it->tag == tag) {
        // Record the seq so a late re-delivery of a discarded frame is
        // dropped by the idempotence ledger instead of resurrecting a CPI
        // the receiver already shed.
        box.delivered[static_cast<size_t>(src)].insert(it->seq);
        box.buffered_bytes -= it->bytes.size();
        it = box.frames.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) box.cv.notify_all();  // wake senders blocked on capacity
  return dropped;
}

}  // namespace ppstap::comm
