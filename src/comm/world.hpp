// In-process message-passing runtime.
//
// The paper's implementation uses ANSI C + MPI on the Paragon; this runtime
// reproduces the same programming model inside one process: a World of
// ranks (one thread each), tagged point-to-point messages matched on
// (source, tag), eager buffered sends and blocking or deadline receives —
// the personalized point-to-point exchange of the paper's Fig. 10 loop.
// Every inter-task byte of the parallel pipeline flows through here, so the
// functional behaviour (who sends what to whom, in which order) is
// identical to a distributed run, and per-rank byte counters feed the
// communication-volume checks against the machine model. Ranks share one
// address space, so a send hands its buffer over: the frame's bytes move
// from the sender into the mailbox and on to the receiver, and the only
// data movement is the one the paper's redistribution needs — the sender
// building its per-destination message.
//
// Flow control: each rank's mailbox has a byte capacity; senders block when
// the destination is full (at least one message is always admitted so a
// single oversized message cannot deadlock). This models the backpressure a
// finite-buffer interconnect applies to a pipeline whose downstream tasks
// lag — without it the Doppler task would race arbitrarily far ahead.
//
// Framing and fault tolerance: every message travels as a frame carrying a
// per-(src, dest) sequence number and a payload checksum. A checksum
// mismatch (possible only under fault injection, see fault.hpp) triggers
// the retransmission path: bounded retries with backoff against the
// sender-side pristine copy, counted in CommStats::retransmissions. An
// installed FaultPlan can also delay frames in flight, drop them, or kill
// a rank at a chosen send/recv.
//
// Failure behaviour: a rank that throws RankKilled dies *individually* —
// peers observe peer-dead (recv_bytes_for returns RecvStatus::kPeerDead,
// plain recv throws once the mailbox drains). A world may declare its last
// ranks a spare pool: while a pool member is still idle, every other rank
// is recoverable — a death parks its receivers instead of failing them, an
// idle spare claims it with wait_for_death() and assumes the dead rank's
// identity (and intact mailbox) with Comm::take_over(). Any other exception
// aborts the whole world and every blocked operation on any rank throws
// ppstap::Error instead of hanging.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace ppstap::comm {

class World;
class FaultPlan;

/// A corrupted frame is refetched from the sender-side pristine copy at
/// most this many times before the receiver gives up (RecvStatus::kCorrupt
/// on a deadline receive, fatal otherwise).
inline constexpr int kMaxRetransmitAttempts = 5;

/// Pipeline message tags are cpi * kTagStride + slot (core/tags.hpp).
inline constexpr int kTagStride = 16;

/// Tag-slot buckets for the per-edge retry histogram: slots 0-8 are the
/// Fig. 4 data edges, bucket 9 aggregates everything else (protocol slots,
/// test traffic).
inline constexpr int kRetryEdgeBuckets = 10;

/// Thrown inside a rank when a FaultPlan kKill rule fires (before the
/// matched operation takes effect, so no message is half-consumed).
/// World::run treats it as a per-rank death, not a global abort.
class RankKilled : public Error {
 public:
  explicit RankKilled(int rank)
      : Error("rank " + std::to_string(rank) + " killed by fault injection"),
        rank_(rank) {}
  int rank() const { return rank_; }

 private:
  int rank_;
};

/// Per-rank communication statistics.
struct CommStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  /// Frames whose checksum failed on delivery and were fetched again from
  /// the sender-side pristine copy (nonzero only under fault injection).
  std::uint64_t retransmissions = 0;
  /// Per-edge retry-count histogram: retry_histogram[e][a] counts frames
  /// received on edge bucket e (tag slot, kRetryEdgeBuckets) that delivered
  /// after exactly a+1 refetches; the last column (a ==
  /// kMaxRetransmitAttempts) counts frames that exhausted the budget.
  /// All-zero for frames that deliver clean on the first attempt.
  std::array<std::array<std::uint64_t, kMaxRetransmitAttempts + 1>,
             kRetryEdgeBuckets>
      retry_histogram{};
  /// Seconds this rank spent blocked inside recv waiting for a matching
  /// message to arrive (the queue-wait component of Fig. 10's receive
  /// phase; feeds the per-task queue-wait gauges).
  double recv_wait_seconds = 0.0;
  /// Seconds this rank spent blocked in send on mailbox flow control.
  double send_wait_seconds = 0.0;
  /// Frames discarded by receiver-side idempotence: a frame whose
  /// (src, seq) was already delivered (or deliberately discarded) arrived
  /// again — a kDuplicate re-delivery, never the retransmission path,
  /// which refetches in place without a second enqueue.
  std::uint64_t dup_discarded = 0;
};

/// Small causal trace context a sender can piggyback on a frame (the
/// observability analogue of PR 5's payload digests): enough for obs to
/// stitch per-rank spans into one end-to-end chain per CPI. Carried in the
/// frame struct itself — never serialized into the payload — so receivers
/// see exactly the bytes that were sent and the disabled path costs one
/// null-pointer test per send.
struct FlowContext {
  std::int64_t cpi = -1;    ///< CPI the consumer will process
  std::int16_t task = -1;   ///< producing task (stap::Task index)
  std::int16_t edge = -1;   ///< redistribution edge id (core::Edge)
  std::int32_t hop = 0;     ///< hop sequence along the pipeline (1-based)
  double sent_at = 0.0;     ///< WallTimer::now() when the send started
};

/// Outcome of a deadline receive (Comm::recv_bytes_for).
enum class RecvStatus {
  kOk,        ///< payload (or marker) delivered
  kTimeout,   ///< no matching frame arrived within the deadline
  kPeerDead,  ///< the source rank died and nobody can revive it
  kCorrupt,   ///< the frame stayed corrupt past the retransmission budget;
              ///< it has been consumed (late retries cannot succeed)
};

/// A deadline receive's result. `marker` distinguishes a zero-payload
/// control frame (Comm::send_marker — the pipeline's "CPI shed" token)
/// from a regular message.
struct RecvResult {
  RecvStatus status = RecvStatus::kOk;
  bool marker = false;
  std::vector<std::byte> bytes;

  /// True only for a regular data delivery.
  bool ok() const { return status == RecvStatus::kOk && !marker; }
};

/// A delivered payload read in place as trivially copyable T: the view owns
/// the frame's bytes — the very buffer the sender filled, when no fault was
/// injected — so unpacking reads them without another copy. The sender
/// wrote T objects into that storage (an owned send of a buffer viewed as
/// T), and operator new aligns it for any T the static_asserts admit.
template <typename T>
class FrameView {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  explicit FrameView(std::vector<std::byte>&& bytes)
      : bytes_(std::move(bytes)) {
    PPSTAP_CHECK(bytes_.size() % sizeof(T) == 0,
                 "received byte count not a multiple of element size");
    elems_ = {reinterpret_cast<const T*>(bytes_.data()),
              bytes_.size() / sizeof(T)};
  }

  std::span<const std::byte> bytes() const { return std::as_bytes(elems_); }
  std::size_t size() const { return elems_.size(); }
  auto begin() const { return elems_.begin(); }
  auto end() const { return elems_.end(); }
  const T& operator[](std::size_t i) const { return elems_[i]; }

  /// Shrink the view by its trailing `n` bytes (a whole number of
  /// elements); the storage is kept.
  void drop_back_bytes(std::size_t n) {
    PPSTAP_CHECK(n % sizeof(T) == 0 && n <= bytes().size(),
                 "cannot drop a partial element or more than the view");
    elems_ = elems_.first(elems_.size() - n / sizeof(T));
  }

 private:
  std::vector<std::byte> bytes_;
  std::span<const T> elems_;
};

/// A rank's handle to the world. Valid only inside World::run's callback,
/// on the thread it was given to.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Eager buffered send that hands `bytes` over: the buffer moves into
  /// the destination mailbox and on to the receiver without a copy, and
  /// the caller's vector is left empty — one rank owns a frame at a time.
  /// Blocks only when the destination mailbox is over capacity. When
  /// `flow` is non-null its trace context rides on the frame (sent_at is
  /// stamped here) and the receiver emits an obs "xfer" flow span on
  /// delivery.
  void send_bytes(int dest, int tag, std::vector<std::byte>&& bytes,
                  const FlowContext* flow = nullptr);

  /// Eager buffered send of borrowed bytes: copies them once into an owned
  /// buffer and sends that.
  void send_bytes(int dest, int tag, std::span<const std::byte> bytes,
                  const FlowContext* flow = nullptr);

  /// Blocking receive of the next message matching (src, tag).
  std::vector<std::byte> recv_bytes(int src, int tag);

  /// Deadline receive: like recv_bytes but gives up after
  /// `timeout_seconds` (RecvStatus::kTimeout) and reports a dead,
  /// unrevivable source as RecvStatus::kPeerDead instead of hanging. A
  /// recoverable dead source is waited on for the full deadline — a spare
  /// may still take over and produce the message. A zero deadline is the
  /// nonblocking probe: it delivers only a frame that is already due.
  RecvResult recv_bytes_for(int src, int tag, double timeout_seconds);

  /// Send a zero-payload control marker (delivered with
  /// RecvResult::marker == true). The pipeline uses it as the "CPI shed"
  /// token propagated downstream in place of data.
  void send_marker(int dest, int tag);

  /// Typed span send for trivially copyable T carrying a trace context.
  template <typename T>
  void send(int dest, int tag, std::span<const T> data,
            const FlowContext* flow) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag,
               {reinterpret_cast<const std::byte*>(data.data()),
                data.size() * sizeof(T)},
               flow);
  }

  /// Drop every currently buffered frame matching (src, tag) — late
  /// arrivals for a CPI the receiver already shed. Returns the number of
  /// frames discarded. Never blocks.
  std::size_t discard(int src, int tag);

  /// Assume the identity (rank number and mailbox) of a dead recoverable
  /// rank previously claimed via World::wait_for_death. After this call
  /// rank() == dead_rank, pending frames addressed to the dead rank are
  /// receivable, peers no longer observe the rank as dead, and the pool
  /// holds one idle member fewer.
  void take_over(int dead_rank);

  /// Typed span send for trivially copyable T.
  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag,
               {reinterpret_cast<const std::byte*>(data.data()),
                data.size() * sizeof(T)});
  }

  /// Typed receive; validates the byte count is a multiple of sizeof(T).
  template <typename T>
  std::vector<T> recv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto bytes = recv_bytes(src, tag);
    PPSTAP_CHECK(bytes.size() % sizeof(T) == 0,
                 "received byte count not a multiple of element size");
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  const CommStats& stats() const { return stats_; }

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}
  World* world_;
  int rank_;
  CommStats stats_;
};

class World {
 public:
  /// `mailbox_capacity_bytes` bounds the buffered bytes per rank before
  /// senders block (flow control / pipeline backpressure).
  explicit World(int num_ranks,
                 std::size_t mailbox_capacity_bytes = 256ull << 20);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return num_ranks_; }

  /// Install a fault-injection plan (borrowed; must outlive the run, may
  /// be nullptr to clear). run() resets the plan's counters so a seeded
  /// plan replays identically across runs.
  void set_fault_plan(FaultPlan* plan) { plan_ = plan; }

  /// Declare the last `spares` ranks a spare pool (configuration; persists
  /// across runs). Each member may take over one dead rank per run.
  void set_spare_pool(int spares);

  /// Pool members that have not taken over a rank yet in this run.
  int idle_spares() const;

  /// Block until a dead recoverable rank nobody has claimed yet exists
  /// (claims and returns it), the pool is released (std::nullopt), or
  /// `timeout_seconds` passes (std::nullopt; the default never times out).
  /// Throws if the world aborts while waiting. Intended for pool members.
  std::optional<int> wait_for_death(
      double timeout_seconds = std::numeric_limits<double>::infinity());

  /// End of stream for the pool: every current and later wait_for_death
  /// of this run returns std::nullopt.
  void release_spares();

  /// True while `rank` is dead and unclaimed/unrevived.
  bool rank_dead(int rank) const;

  /// True for a non-pool rank while some pool member has not taken over
  /// yet: a death of it may still be claimed (a claimed rank stays
  /// recoverable until its replacement takes over). False means a death of
  /// this rank is permanent.
  bool rank_recoverable(int rank) const;

  /// Dead and not recoverable: the rank's frames will never arrive — the
  /// signal the elastic shrink path and the sink's quorum key on. Safe
  /// against a concurrent take_over (never true for a just-revived rank).
  bool rank_lost(int rank) const;

  /// WallTimer::now() timestamp at which `rank` died (0 if alive);
  /// subtract from the spare's restore-complete time for recovery stall.
  double death_time(int rank) const;

  /// Abort the world from outside the rank callbacks (e.g. a test
  /// watchdog): every blocked operation throws promptly and run() rethrows
  /// an Error carrying `why`.
  void request_abort(const std::string& why = "abort requested");

  /// Spawn one thread per rank running `fn`, join all, and rethrow the
  /// first rank exception (if any). RankKilled is not an error: the rank
  /// dies individually and run() returns normally once the survivors
  /// finish. May be called repeatedly.
  void run(const std::function<void(Comm&)>& fn);

  /// Statistics gathered during the last run, indexed by rank.
  const std::vector<CommStats>& last_stats() const { return last_stats_; }

 private:
  friend class Comm;
  struct Mailbox;
  struct Frame;
  int num_ranks_;
  std::size_t capacity_;
  int pool_size_ = 0;
  FaultPlan* plan_ = nullptr;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::vector<CommStats> last_stats_;

  // Abort + liveness state live behind the Impl wall too.
  struct Shared;
  std::unique_ptr<Shared> shared_;

  void do_send(Comm& c, int dest, int tag, std::vector<std::byte> bytes,
               bool marker, const FlowContext* flow);
  RecvResult do_recv(Comm& c, int src, int tag, const double* timeout);
  /// Drop re-delivered copies of a just-consumed frame from the mailbox
  /// (caller holds the mailbox lock). Without this a duplicate whose tag is
  /// only ever received once would sit in the queue forever, counting
  /// against channel capacity — a duplicate storm must not turn into
  /// permanent backpressure.
  static void sweep_duplicates(Comm& c, Mailbox& box, int src,
                               std::uint64_t seq);
  std::size_t do_discard(Comm& c, int src, int tag);
  void do_take_over(Comm& c, int dead_rank);
  // nullopt (budget exhausted) only when allow_corrupt_failure; the plain
  // recv path keeps treating persistent corruption as fatal.
  std::optional<std::vector<std::byte>> finalize_frame(
      Comm& c, Frame&& frame, bool allow_corrupt_failure);
  void mark_dead(int rank);
  void abort_world();
};

}  // namespace ppstap::comm
