#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "common/checksum.hpp"
#include "common/timer.hpp"
#include "core/cpi_source.hpp"
#include "core/elastic.hpp"
#include "core/overload.hpp"
#include "core/sim.hpp"
#include "core/tags.hpp"
#include "cube/partition.hpp"
#include "obs/trace.hpp"
#include "stap/beamform.hpp"
#include "stap/doppler.hpp"
#include "stap/pulse_compression.hpp"
#include "stap/training.hpp"
#include "stap/weights.hpp"

namespace ppstap::core {

namespace {

using comm::Comm;
using cube::BlockPartition;
using linalg::MatrixCF;
using stap::Task;

// Relative tolerance of the floating-point ABFT invariants and of the
// weight-path QR residual gate. Verification accumulates in double, so the
// slack only has to absorb float rounding in the kernel under test; 1e-4
// leaves ~two orders of magnitude of margin at Table-1 sizes while still
// catching every interesting exponent-bit flip.
constexpr double kAbftTolerance = 1e-4;

// Slice of an ordered item list owned by part `p` of a partition.
template <typename T>
std::span<const T> slice(const std::vector<T>& list, const BlockPartition& bp,
                         index_t p) {
  return {list.data() + bp.offset(p), static_cast<size_t>(bp.length(p))};
}

struct Shared {
  Shared(const stap::StapParams& p_in, const NodeAssignment& a_in,
         const std::vector<MatrixCF>& steering_in,
         const std::vector<cfloat>& replica_in, CpiSource& source_in,
         index_t n_cpis_in, index_t warmup_in, index_t cooldown_in)
      : p(p_in),
        a(a_in),
        steering(steering_in),
        replica(replica_in),
        source(source_in),
        n_cpis(n_cpis_in),
        warmup(warmup_in),
        cooldown(cooldown_in) {}

  const stap::StapParams& p;
  const NodeAssignment& a;
  const std::vector<MatrixCF>& steering;  // per transmit position
  const std::vector<cfloat>& replica;
  CpiSource& source;
  index_t n_cpis, warmup, cooldown;

  /// The elastic migration engine owns the epoch sequence: every partner
  /// set and block partition is resolved per CPI through topo(cpi), so a
  /// committed migration changes the redistribution fan-out for CPI >= B
  /// on every rank at once. Always installed (a run with elastic disabled
  /// simply never leaves epoch 0).
  ElasticEngine* eng = nullptr;

  /// Gray-failure detector (PR 10; nullptr when health is disabled).
  /// Every rank feeds its Fig.-10 timestamps in, the coordinator scans,
  /// and a quarantined rank honours the eviction flag at its next barrier.
  HealthMonitor* health = nullptr;

  std::vector<index_t> easy_bins, hard_bins, easy_cells;
  std::vector<std::vector<index_t>> hard_cells;  // per segment
  std::vector<stap::HardUnit> hard_units;        // bin-major over hard_bins

  // Fault-tolerance state (inert when ft.any() is false).
  FaultToleranceConfig ft;
  // Overload control (nullptr when disabled — the plain PR 2 pipeline).
  OverloadController* ctrl = nullptr;
  // ABFT integrity layer (PR 5; inert when integ.enabled is false). The
  // plan pointer doubles as the compute-stage flip-injection hook — flips
  // are applied even with verification off, so the ABFT-off arm of the
  // detection bench measures true silent corruption.
  IntegrityConfig integ;
  comm::FaultPlan* plan = nullptr;
  /// The run's event log: every shed origin, repair, heal and tally.
  EventLog log;
  /// The run's comm world; it owns the spare pool.
  comm::World* world = nullptr;
  /// Per-(global rank) weight-state checkpoint: serialized computers and
  /// the CPI the restored rank should resume at. Guarded by mu.
  struct Checkpoint {
    index_t next_cpi = 0;
    std::string blob;
  };
  std::map<int, Checkpoint> checkpoints;
  /// Ranks a pool spare has taken over whose new incarnation has not
  /// entered a CPI loop yet: the death time and heal cause. Guarded by mu.
  struct Revival {
    double died_at = 0.0;
    const char* cause = "death";
  };
  std::map<int, Revival> revivals;

  std::mutex mu;
  std::vector<double> input_ready;  // per CPI: its admission stamp
  std::vector<double> completion;   // per CPI, set by the last CFAR rank
  std::vector<int> cfar_done;
  int cfar_ranks_finished = 0;
  std::vector<char> shed;  // per CPI, set by CFAR ranks
  std::vector<std::vector<stap::Detection>> detections;
  std::array<TaskTiming, stap::kNumTasks> timing_sum{};
  std::array<int, stap::kNumTasks> timing_ranks{};
  // Per-link (Fig. 4 edge) byte counters over the measured CPIs; updated
  // with relaxed atomics from the sending ranks.
  std::array<std::atomic<std::uint64_t>, kNumPipelineEdges> edge_bytes{};

  bool measured(index_t cpi) const {
    return cpi >= warmup && cpi < n_cpis - cooldown;
  }
  index_t measured_count() const { return n_cpis - warmup - cooldown; }

  // Initial-layout rank lookups. Only valid for the non-migratable groups
  // (weights, beamforming — their membership never changes) and for
  // spare-rank bookkeeping; anything involving Doppler / pulse compression
  // / CFAR membership must go through topo(cpi).
  int base(Task t) const { return a.first_rank(t); }
  int count(Task t) const { return a[t]; }

  /// Topology governing `cpi` (lock-free epoch lookup).
  const Topology& topo(index_t cpi) const { return eng->topo(cpi); }
  /// Per-CPI migration hook: records progress, joins a pending barrier,
  /// returns the topology for `cpi`. Call at the top of every task's CPI
  /// loop before any receive or send for that CPI.
  const Topology& barrier(Comm& c, index_t cpi) {
    const Topology& tp = eng->barrier_point(c, cpi);
    // Quarantine hook: a confirmed straggler dies voluntarily at its next
    // CPI barrier — after progress was recorded for `cpi` but before any
    // receive or send for it — so the recovery machinery (spare takeover /
    // shrink) inherits the cleanest possible cut: the replacement re-enters
    // at exactly this CPI with nothing half-consumed. The flag is cleared
    // before a spare re-enters under this identity.
    if (health != nullptr && health->quarantine_requested(c.rank()))
      throw comm::RankKilled(c.rank());
    return tp;
  }

  /// Logs the heal of a rank a pool spare took over, at its new
  /// incarnation's first CPI-loop entry (task `t`, resume CPI `cpi`): the
  /// state is restored and no CPI barrier has passed, so MTTR (death to
  /// here) ends at the same point for every role. No-op for any other
  /// entry.
  void record_heal(int rank, Task t, index_t cpi) {
    Revival rv;
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = revivals.find(rank);
      if (it == revivals.end()) return;
      rv = it->second;
      revivals.erase(it);
    }
    Event e{EventKind::kHealSpare, WallTimer::now(), rank, static_cast<int>(t),
            cpi, rv.cause};
    e.seconds = e.time - rv.died_at;
    log.record(e);
  }

  // Training rows of weight rank `r` of task `wt`, in the order Doppler
  // packs and the weight task unpacks them: one block per owned easy bin
  // (the easy training cells) or per owned hard (bin, segment) unit (that
  // segment's cells).
  std::vector<stap::TrainingBlock> train_blocks(Task wt, index_t r) const {
    std::vector<stap::TrainingBlock> out;
    if (wt == Task::kEasyWeight) {
      for (const index_t bin : slice(easy_bins, topo(0).part_ewt, r))
        out.push_back({bin, easy_cells});
    } else {
      for (const auto& u : slice(hard_units, topo(0).part_hwu, r))
        out.push_back({u.bin, hard_cells[static_cast<size_t>(u.segment)]});
    }
    return out;
  }

  // Range-cell positions of `cells` inside Doppler rank d's slab under
  // partition `pk`, as indices into `cells` (so senders and receivers
  // agree on row order).
  std::vector<index_t> cell_positions_in_slab(
      std::span<const index_t> cells, index_t d,
      const BlockPartition& pk) const {
    const index_t k0 = pk.offset(d);
    const index_t k1 = k0 + pk.length(d);
    std::vector<index_t> out;
    for (size_t i = 0; i < cells.size(); ++i)
      if (cells[i] >= k0 && cells[i] < k1)
        out.push_back(static_cast<index_t>(i));
    return out;
  }
};

// Per-rank Figure-10 phase accumulator.
struct PhaseAcc {
  double recv = 0, comp = 0, send = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checks_passed = 0;  // ABFT verifications that passed
  void commit(Shared& s, Task t, index_t measured_cpis) {
    std::lock_guard<std::mutex> lock(s.mu);
    auto& sum = s.timing_sum[static_cast<size_t>(t)];
    const double inv = 1.0 / static_cast<double>(measured_cpis);
    sum.recv += recv * inv;
    sum.comp += comp * inv;
    sum.send += send * inv;
    s.timing_ranks[static_cast<size_t>(t)] += 1;
  }
};

// --- ABFT integrity helpers (PR 5) -----------------------------------------

std::span<float> float_view(cube::CpiCube& cu) {
  return {reinterpret_cast<float*>(cu.data()),
          static_cast<size_t>(cu.size()) * 2};
}
std::span<float> float_view(cube::RealCube& cu) {
  return {cu.data(), static_cast<size_t>(cu.size())};
}

std::uint64_t flip_salt(int rank, index_t cpi, int attempt) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 34) ^
         (static_cast<std::uint64_t>(cpi) << 2) ^
         static_cast<std::uint64_t>(attempt);
}

// Compute-stage fault injection: when the installed plan schedules a flip
// for (task, cpi, attempt), corrupt one bit of the stage's freshly computed
// output. Applied before verification — and also when verification is off,
// so the ABFT-off arm of the detection bench measures true silent
// corruption.
void maybe_flip(Shared& s, Task t, index_t cpi, int rank, int attempt,
                std::span<float> out) {
  if (s.plan == nullptr) return;
  int bit = 30;
  if (s.plan->compute_flip_due(static_cast<int>(t), cpi, rank, attempt, &bit))
    flip_float_bit(out, bit, flip_salt(rank, cpi, attempt));
}

void maybe_flip_weights(Shared& s, Task t, index_t cpi, int rank, int attempt,
                        std::vector<MatrixCF>& ws) {
  if (s.plan == nullptr || ws.empty()) return;
  int bit = 30;
  if (!s.plan->compute_flip_due(static_cast<int>(t), cpi, rank, attempt, &bit))
    return;
  const std::uint64_t salt = flip_salt(rank, cpi, attempt);
  auto& wm = ws[static_cast<size_t>(salt % ws.size())];
  if (wm.size() == 0) return;
  flip_float_bit({reinterpret_cast<float*>(wm.data()),
                  static_cast<size_t>(wm.size()) * 2},
                 bit, salt >> 1);
}

// CFAR's output is a sparse detection list; the flip lands in a reported
// power value, which the exact power-lookup re-check catches bitwise.
void maybe_flip_detections(Shared& s, index_t cpi, int rank, int attempt,
                           std::vector<stap::Detection>& dets) {
  if (s.plan == nullptr || dets.empty()) return;
  int bit = 30;
  if (!s.plan->compute_flip_due(static_cast<int>(Task::kCfar), cpi, rank,
                                attempt, &bit))
    return;
  const std::uint64_t salt = flip_salt(rank, cpi, attempt);
  auto& d = dets[static_cast<size_t>(salt % dets.size())];
  flip_float_bit({&d.power, 1}, bit, salt);
}

// Weight-path invariant: the solve normalizes every column to unit 2-norm
// (zero columns are patched to quiescent first), so any corruption in the
// weight matrices shows directly in a column norm. Accumulates in double.
bool weights_unit_norm(const std::vector<MatrixCF>& ws, double tol) {
  for (const auto& wm : ws) {
    for (index_t col = 0; col < wm.cols(); ++col) {
      double nsq = 0.0;
      for (index_t row = 0; row < wm.rows(); ++row) {
        const cfloat v = wm(row, col);
        const double re = v.real(), im = v.imag();
        nsq += re * re + im * im;
      }
      if (!std::isfinite(nsq)) return false;
      if (nsq == 0.0) continue;  // a zero steering column stays zero
      if (std::abs(std::sqrt(nsq) - 1.0) > tol) return false;
    }
  }
  return true;
}

// The 8-byte end-to-end digest trails the payload inside the data frame
// itself — a separate digest message would double the per-CPI message
// count, and on an oversubscribed host each extra message is a condvar
// wakeup. Markers carry no digest. Digest bytes bypass the byte accounting
// so the Table 2-6 volume validation is unperturbed.
constexpr size_t kDigestBytes = sizeof(std::uint64_t);

// One redistribution frame's owned buffer: `n` payload elements of T,
// written in place through elems(), with capacity for the digest reserved
// up front so appending it never reallocates. send_frame hands the buffer
// to the transport, which moves it on to the receiver's FrameView — the
// payload is written once and never copied on the way.
template <typename T>
struct OutFrame {
  std::vector<std::byte> bytes;

  explicit OutFrame(size_t n) {
    bytes.reserve(n * sizeof(T) + kDigestBytes);
    bytes.resize(n * sizeof(T));
  }
  std::span<T> elems() {
    return {reinterpret_cast<T*>(bytes.data()), bytes.size() / sizeof(T)};
  }
};

void append_digest(std::vector<std::byte>& buf) {
  const std::uint64_t d = checksum_bytes(buf);
  const auto* p = reinterpret_cast<const std::byte*>(&d);
  buf.insert(buf.end(), p, p + sizeof d);
}

// Trace context for a redistribution frame on edge `e` toward the consumer
// of `cpi` (weight edges pass the consumer's CPI, so the flow lands on the
// chain that actually uses the weights). Built only when tracing is on.
comm::FlowContext flow_for(index_t cpi, Edge e) {
  comm::FlowContext fc;
  fc.cpi = static_cast<std::int64_t>(cpi);
  fc.task = static_cast<std::int16_t>(edge_src(e));
  fc.edge = static_cast<std::int16_t>(e);
  fc.hop = e <= kDopToHardBf ? 1 : (e == kPcToCfar ? 3 : 2);
  return fc;
}

// Send one redistribution frame on edge `e` for consumer CPI `cpi`. With the
// integrity layer on, the digest is appended to the frame first. The
// payload bytes are charged to `acc` and to the edge's counter when
// `measured`.
template <typename T>
void send_frame(Comm& c, Shared& s, int dest, index_t cpi, Edge e,
                OutFrame<T>&& frame, bool measured, PhaseAcc& acc) {
  std::vector<std::byte>& buf = frame.bytes;
  const std::uint64_t n = buf.size();
  comm::FlowContext fc;
  const comm::FlowContext* flow = nullptr;
  if (obs::tracing_enabled()) {
    fc = flow_for(cpi, e);
    flow = &fc;
  }
  if (s.integ.enabled) append_digest(buf);
  c.send_bytes(dest, tag_for(cpi, e), std::move(buf), flow);
  if (measured) {
    acc.bytes += n;
    s.edge_bytes[static_cast<size_t>(e)].fetch_add(n,
                                                   std::memory_order_relaxed);
  }
}

// One obs span per Figure-10 phase: recv [t0,t1), comp [t1,t2),
// send [t2,t3). `send_bytes` annotates the send span (0 on unmeasured
// CPIs, where byte accounting is off).
void emit_phase_spans(int rank, Task t, index_t cpi, double t0, double t1,
                      double t2, double t3, std::uint64_t send_bytes) {
  if (!obs::tracing_enabled()) return;
  const int task = static_cast<int>(t);
  const auto c = static_cast<std::int64_t>(cpi);
  obs::emit({"recv", "pipeline", rank, task, c, t0, t1, -1, -1});
  obs::emit({"comp", "pipeline", rank, task, c, t1, t2, -1, -1});
  obs::emit({"send", "pipeline", rank, task, c, t2, t3,
             static_cast<std::int64_t>(send_bytes), -1});
}

// Budget large enough to be "never" yet safely representable in the comm
// layer's chrono arithmetic (about three years).
constexpr double kNoDeadline = 1e8;

// Deadline-aware receive helper: one per rank and stage, reset per CPI.
// Every receive is the comm layer's deadline receive, because any upstream
// task may emit shed markers (deadline shedding, overload control, integrity
// escalation) and only the deadline receive can represent one. The first
// recv of a CPI starts the real-time budget — cpi_deadline_seconds with
// shedding on, kNoDeadline otherwise, so without shedding markers are
// recognized and nothing times out. A budget that ran out before the CPI
// was admitted restarts at its admission stamp (admitted_late). A recv
// that cannot complete within the remaining budget (or that delivers a
// shed marker / hits a dead peer / consumes an unrecoverably corrupt
// frame) returns nullopt, after which the CPI must be shed. Remaining
// inputs are still polled with a zero deadline so whatever already arrived
// is drained, and sources that never delivered go on the stale list —
// their late frames are discarded at the start of subsequent CPIs. (A
// kCorrupt frame is already consumed and is NOT staled.)
struct FtRecv {
  Comm& c;
  Shared& s;
  double deadline = 0.0;  // absolute, WallTimer base
  bool missed = false;    // some input did not make this CPI's deadline
  // Shed cause of the first receive that failed other than by a marker, or
  // nullptr. A CPI lost only to markers was shed upstream and is recorded
  // there; forwarding writes nothing.
  const char* origin = nullptr;
  std::vector<std::pair<int, int>> stale{};  // (src, tag) awaiting discard

  void begin() {
    deadline = WallTimer::now() +
               (s.ft.shedding ? s.ft.cpi_deadline_seconds : kNoDeadline);
    missed = false;
    origin = nullptr;
    for (auto it = stale.begin(); it != stale.end();)
      it = c.discard(it->first, it->second) > 0 ? stale.erase(it) : it + 1;
  }

  /// CPI `cpi`'s frame from `src` on edge `e`, digest checked and stripped,
  /// read in place. nullopt => marker, timeout, dead peer, or corrupt
  /// frame: the CPI cannot complete.
  template <typename T>
  std::optional<comm::FrameView<T>> recv(int src, index_t cpi, Edge e) {
    const int tag = tag_for(cpi, e);
    const double remaining =
        missed ? 0.0 : std::max(0.0, deadline - WallTimer::now());
    auto r = c.recv_bytes_for(src, tag, remaining);
    if (r.status == comm::RecvStatus::kTimeout && !missed &&
        admitted_late(cpi))
      r = c.recv_bytes_for(src, tag,
                           std::max(0.0, deadline - WallTimer::now()));
    if (r.status == comm::RecvStatus::kPeerDead && s.ft.heal_shrink) {
      // The dead peer is being healed by a topology shrink: hold the edge
      // to the CPI deadline like any other stall instead of shedding
      // instantly. A prompt dead-peer shed would let the sink sprint to
      // the end of the stream, pushing every rank's progress past the
      // last CPI a shrink barrier could legally be placed at — the
      // recovery would be unreachable exactly when it is configured.
      // CPIs re-routed by the committed shrink never touch this edge;
      // the in-flight ones shed here when the budget runs out.
      while (r.status == comm::RecvStatus::kPeerDead &&
             WallTimer::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        r = c.recv_bytes_for(src, tag, 0.0);
      }
    }
    if (r.ok()) {
      comm::FrameView<T> buf(std::move(r.bytes));
      strip_digest(src, buf, cpi);
      return buf;
    }
    missed = true;
    if (r.status == comm::RecvStatus::kTimeout ||
        r.status == comm::RecvStatus::kPeerDead)
      stale.emplace_back(src, tag);
    if (origin == nullptr && !r.marker)
      origin = r.status == comm::RecvStatus::kTimeout    ? "timeout"
               : r.status == comm::RecvStatus::kPeerDead ? "dead_peer"
                                                          : "corrupt";
    return std::nullopt;
  }

  // True (with the deadline moved) when `cpi` was admitted less than a
  // budget before the deadline: the budget began while the CPI was still
  // held at admission — the throttle waiting for a backlog to drain — and
  // restarts at its admission stamp. Otherwise a throttled CPI would shed
  // here, and skip a weight task's training update, with nothing upstream
  // failed. Blocks while the CPI is undecided.
  bool admitted_late(index_t cpi) {
    if (s.ctrl == nullptr || !s.ft.shedding) return false;
    const double budget_end = s.ctrl->wait_decided(cpi) +
                              s.ft.cpi_deadline_seconds;
    if (budget_end <= deadline) return false;
    deadline = budget_end;
    return true;
  }

  // Strip the digest trailing the payload and compare it against the bytes
  // actually delivered; a mismatch is recorded and attributed to the
  // producing task. (The transport already checksums every frame, so a
  // mismatch here means the producer's buffer changed between verification
  // and pack, or the redistribution reassembly disagrees with the
  // producer.) Runs before the caller's payload-length checks — it shrinks
  // the view back to the payload proper.
  template <typename T>
  void strip_digest(int src, comm::FrameView<T>& buf, index_t cpi) {
    if (!s.integ.enabled) return;
    const auto b = buf.bytes();
    if (b.size() < kDigestBytes) return;
    std::uint64_t d = 0;
    std::memcpy(&d, b.data() + b.size() - kDigestBytes, kDigestBytes);
    buf.drop_back_bytes(kDigestBytes);
    if (d == checksum_bytes(buf.bytes())) return;
    Event e{EventKind::kDigestMismatch, 0.0, c.rank(),
            static_cast<int>(s.topo(cpi).role_of(src).task), cpi};
    e.peer = src;
    s.log.record(e);
  }
};

// Gray-failure injection (kSlow): stretch this rank's compute stage by the
// plan's multiplicative slowdown, realized as a sleep on top of the real
// execution time. A revived rank — a spare wearing a quarantined rank's
// identity — is exempt: the rule modeled the evicted hardware, not its
// healthy replacement.
void maybe_straggle(Comm& c, Shared& s, index_t cpi, double elapsed) {
  if (s.plan == nullptr) return;
  if (s.health != nullptr && s.health->revived(c.rank())) return;
  const double f = s.plan->slow_factor_due(c.rank(), cpi);
  if (f <= 1.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double>((f - 1.0) * elapsed));
}

// Health sampling: one intrinsic-service / queue-wait pair per completed
// Fig.-10 cycle. Service is t3 - t1 — the receive wait is excluded, so a
// rank merely starved behind an upstream straggler is never flagged itself.
void observe_health(Comm& c, Shared& s, Task t, index_t cpi, double t0,
                    double t1, double t3) {
  if (s.health != nullptr)
    s.health->observe(c.rank(), static_cast<int>(t), cpi, t3 - t1, t1 - t0);
}

// Members of task `t`'s group under `tp` whose frames and ticks can still
// arrive: alive, or dead but recoverable by an idle pool spare.
std::vector<int> live_members(const Shared& s, const Topology& tp, Task t) {
  std::vector<int> out;
  for (const int r : tp.ranks[static_cast<size_t>(t)])
    if (!s.eng->rank_permanently_dead(r)) out.push_back(r);
  return out;
}

// Sink-side detector tick: score every task group's live members.
// Eviction viability rides along — a spare left in the pool, else the
// shrink protocol — so the do-no-harm gate can refuse quarantines nobody
// could heal.
void health_scan(Shared& s, const Topology& tp, index_t cpi) {
  if (s.health == nullptr) return;
  std::vector<HealthGroup> groups;
  for (int t = 0; t < stap::kNumTasks; ++t) {
    HealthGroup g{t, live_members(s, tp, static_cast<Task>(t))};
    if (!g.ranks.empty()) groups.push_back(std::move(g));
  }
  s.health->scan(cpi, groups, s.world->idle_spares() > 0, s.ft.heal_shrink);
}

// Sink-side sweep of a CPI that can never complete whole (a CFAR tick died
// with its rank): shed it, drop the detections banked for it and record the
// shed. The caller holds s.mu, or the stream has drained.
void sweep_cpi(Shared& s, index_t cpi, int rank, int task) {
  const auto i = static_cast<size_t>(cpi);
  s.shed[i] = 1;
  s.detections[i].clear();
  s.log.record({EventKind::kShed, 0.0, rank, task, cpi, "sweep"});
}

// ---------------------------------------------------------------------------
// Stage driver: the Figure-10 cycle every task runs
// ---------------------------------------------------------------------------

// One CPI's cycle as the driver hands it to a task's hooks.
struct Cycle {
  const Topology& tp;  // topology governing this CPI
  index_t cpi;
  int me;     // this rank's position in its task group under tp
  bool meas;  // inside the measured (timed, byte-counted) window
  FtRecv& in;
  PhaseAcc& acc;
  double t0 = 0.0;  // receive phase start
  double t1 = 0.0;  // receive phase end
  double idle = 0.0;  // waits inside the hooks the comm layer does not see
};

// Records this CPI's shed where it originated (no-op for a nullptr cause:
// the CPI was lost to markers and its origin is recorded upstream). The
// span covers the cycle so far.
void record_shed(Comm& c, Shared& s, Task t, const Cycle& x,
                 const char* cause) {
  if (cause == nullptr) return;
  Event e{EventKind::kShed, WallTimer::now(), c.rank(), static_cast<int>(t),
          x.cpi, cause};
  e.seconds = e.time - x.t0;
  s.log.record(e);
}

// The detect → recompute-once → escalate policy around one stage execution.
// `compute(attempt)` produces the stage output (and applies any injected
// flip); `verify()` checks the ABFT invariant over the current output.
// Returns false when the stage must escalate: both executions failed
// verification, and the caller falls back to its shed / stale machinery.
template <typename ComputeFn, typename VerifyFn>
bool run_checked(Comm& c, Shared& s, Task t, Cycle& x, ComputeFn&& compute,
                 VerifyFn&& verify) {
  const double c_start = WallTimer::now();
  compute(0);
  maybe_straggle(c, s, x.cpi, WallTimer::now() - c_start);
  if (!s.integ.enabled) return true;
  if (verify()) {
    ++x.acc.checks_passed;
    return true;
  }
  const double t_fail = WallTimer::now();
  compute(1);
  const bool ok = verify();
  Event e{EventKind::kCheckFailed, WallTimer::now(), c.rank(),
          static_cast<int>(t), x.cpi};
  e.count = ok ? 1 : 2;
  s.log.record(e);
  e.kind = ok ? EventKind::kAbftRepair : EventKind::kAbftEscalate;
  e.count = 1;
  e.seconds = e.time - t_fail;
  s.log.record(e);
  return ok;
}

// Shed exit: markers take the place of every frame task `t` would have sent
// for this CPI, so each downstream receiver sheds it instead of waiting.
void forward_markers(Comm& c, const Cycle& x, Task t) {
  for (int i = 0; i < kNumPipelineEdges; ++i) {
    const auto e = static_cast<Edge>(i);
    if (edge_src(e) != t) continue;
    const Task dst = edge_dst(e);
    for (int r = 0; r < x.tp.count(dst); ++r)
      c.send_marker(x.tp.rank_at(dst, r), tag_for(x.cpi, e));
  }
}

// Seconds this rank has spent blocked in receives and flow-controlled sends.
double comm_wait(const Comm& c) {
  return c.stats().recv_wait_seconds + c.stats().send_wait_seconds;
}

// Runs task `t` on this rank from CPI `begin`. Returns the first CPI it did
// not process as a `t` rank (s.n_cpis when it ran to the end): a committed
// migration that changes the rank's role hands control back to run_roles,
// which re-dispatches the new task at the returned CPI.
//
// drive() owns everything the tasks share: a revived rank's heal
// record, the migration barrier and role check, the deadline receive, the
// phase clock and spans, health sampling, the admission window's service
// sample, the PhaseAcc bookkeeping and the shed exit. Each task supplies
// three hooks over a Cycle and a fresh `Cpi` holding that CPI's buffers,
// released when the cycle ends:
//   recv(x, d)     receive + unpack; false sheds the CPI
//   compute(x, d)  compute + invariant through run_checked; false escalates
//   send(x, d)     pack + send
// A shed or escalated CPI skips the remaining hooks, forwards markers to
// the task's downstream groups, and takes no health sample.
template <typename Cpi, typename RecvFn, typename CompFn, typename SendFn>
index_t drive(Comm& c, Shared& s, Task t, index_t begin, RecvFn&& recv,
              CompFn&& compute, SendFn&& send) {
  if (s.ft.spares > 0) s.record_heal(c.rank(), t, begin);
  FtRecv in{c, s};
  PhaseAcc acc;
  index_t cpi = begin;
  for (; cpi < s.n_cpis; ++cpi) {
    const Topology& tp = s.barrier(c, cpi);
    const Topology::Role role = tp.role_of(c.rank());
    if (role.task != t) break;
    Cycle x{tp, cpi, role.local, s.measured(cpi), in, acc};
    Cpi d;
    const std::uint64_t bytes0 = acc.bytes;
    const double waited0 = comm_wait(c);
    x.t0 = WallTimer::now();
    in.begin();
    const bool received = recv(x, d);
    x.t1 = WallTimer::now();
    const bool ok = received && compute(x, d);
    const double t2 = WallTimer::now();
    if (ok) {
      send(x, d);
    } else {
      record_shed(c, s, t, x, received ? "abft" : in.origin);
      forward_markers(c, x, t);
    }
    const double t3 = WallTimer::now();
    emit_phase_spans(c.rank(), t, cpi, x.t0, x.t1, t2, t3,
                     acc.bytes - bytes0);
    if (ok) observe_health(c, s, t, cpi, x.t0, x.t1, t3);
    // The admission window's eq. (1) sample: this cycle's service time.
    if (ok && s.ctrl != nullptr)
      s.ctrl->note_stage_busy(
          cpi, (t3 - x.t0) - x.idle - (comm_wait(c) - waited0));
    if (x.meas) {
      acc.recv += x.t1 - x.t0;
      acc.comp += t2 - x.t1;
      acc.send += t3 - t2;
    }
  }
  acc.commit(s, t, s.measured_count());
  s.log.tally(EventKind::kCheckPassed, acc.checks_passed, c.rank(),
              static_cast<int>(t));
  return cpi;
}

// ---------------------------------------------------------------------------
// Task 0: Doppler filter processing (partitioned along K)
// ---------------------------------------------------------------------------
index_t run_doppler(Comm& c, Shared& s, index_t begin) {
  const auto& p = s.p;
  const index_t j = p.num_channels;
  const index_t jj = p.num_staggered_channels();
  stap::DopplerFilter filter(p);
  // Kept across CPIs: the staggered slab and the range-major gather plan
  // of every outgoing frame ([hard] per destination rank), rebuilt only
  // when a migration moves this rank's slab. The weight and beamforming
  // groups never migrate.
  cube::CpiCube stag;
  index_t plan_k0 = -1, plan_kl = -1;
  std::array<std::vector<std::vector<stap::PackRow>>, 2> bf_rows, wt_rows;
  auto plan = [&](const Topology& tp, index_t k0, index_t kl) {
    if (k0 == plan_k0 && kl == plan_kl) return;
    plan_k0 = k0;
    plan_kl = kl;
    for (const bool hard : {false, true}) {
      const Task bf = hard ? Task::kHardBeamform : Task::kEasyBeamform;
      const Task wt = hard ? Task::kHardWeight : Task::kEasyWeight;
      const auto& bin_list = hard ? s.hard_bins : s.easy_bins;
      const BlockPartition& part = hard ? tp.part_hbf : tp.part_ebf;
      auto& bfr = bf_rows[hard];
      auto& wtr = wt_rows[hard];
      bfr.clear();
      wtr.clear();
      for (int r = 0; r < tp.count(bf); ++r)
        bfr.push_back(stap::beamform_pack_rows(slice(bin_list, part, r), kl));
      for (int r = 0; r < tp.count(wt); ++r)
        wtr.push_back(stap::training_pack_rows(s.train_blocks(wt, r), k0, kl));
    }
  };
  // Each outgoing frame is gathered straight into its own buffer.
  auto pack = [&](const std::vector<stap::PackRow>& rows, bool hard) {
    const index_t nch = hard ? jj : j;
    OutFrame<cfloat> f(rows.size() * static_cast<size_t>(nch));
    stap::pack_rows(stag, rows, nch, f.elems());
    return f;
  };
  struct Cpi {
    index_t k0 = 0, kl = 0;
    DegradationLevel level = DegradationLevel::kFull;
    std::shared_ptr<const cube::CpiCube> full;
  };

  return drive<Cpi>(
      c, s, Task::kDopplerFilter, begin,
      [&](Cycle& x, Cpi& d) {
        if (c.rank() == s.eng->coordinator_rank()) s.eng->policy_tick(c, x.cpi);
        d.k0 = x.tp.part_k.offset(x.me);
        d.kl = x.tp.part_k.length(x.me);
        // Admission gate (pacing, bounded queue, degradation ladder). The
        // decision is memoized: every Doppler rank and the front end get
        // the same answer and the same admission stamp — the CPI's latency
        // origin, whichever thread decided. Its wait is not part of the
        // cycle, so the phase clock starts behind it.
        const auto adm = s.source.admit(x.cpi);
        x.t0 = WallTimer::now();
        {
          std::lock_guard<std::mutex> lock(s.mu);
          s.input_ready[static_cast<size_t>(x.cpi)] = adm.at;
        }
        // Rejected at admission (kShedInput, recorded by the controller):
        // the cube is never generated.
        if (!adm.admit) return false;
        d.level = adm.level;

        // "Receive": the radar feed's shared cube; this rank's rows of it
        // are read in place. Waiting for the front end is not service.
        const double wait_start = WallTimer::now();
        d.full = s.source.get(x.cpi, c.rank());
        x.idle += WallTimer::now() - wait_start;
        return true;
      },
      [&](Cycle& x, Cpi& d) {
        return run_checked(
            c, s, Task::kDopplerFilter, x,
            [&](int attempt) {
              filter.filter_rows(*d.full, d.k0, d.kl, stag);
              maybe_flip(s, Task::kDopplerFilter, x.cpi, c.rank(), attempt,
                         float_view(stag));
            },
            [&] {
              return filter.parseval_check_rows(*d.full, d.k0, stag,
                                                kAbftTolerance);
            });
      },
      [&](Cycle& x, Cpi& d) {
        plan(x.tp, d.k0, d.kl);
        // --- data collection + personalized sends (Figs. 6b, 8) ----------
        // Beamforming first: its edges are on this CPI's latency path
        // (eq. 2), while the weight tasks' solves serve the next visit of
        // this position. Sent last, the weight solves do not compete with
        // the beamforming packs for the cores and caches.
        //
        // Beamforming: the full slab for the destination's bins, J (easy)
        // or both stagger halves' 2J (hard) channels, reorganized to
        // (bin, range, channel) — Fig. 8.
        for (const bool hard : {false, true}) {
          const Task bf = hard ? Task::kHardBeamform : Task::kEasyBeamform;
          for (int r = 0; r < x.tp.count(bf); ++r) {
            send_frame(c, s, x.tp.rank_at(bf, r), x.cpi,
                       hard ? kDopToHardBf : kDopToEasyBf,
                       pack(bf_rows[hard][static_cast<size_t>(r)], hard),
                       x.meas, x.acc);
          }
        }
        // Weight tasks: training rows at each destination's training cells
        // inside this slab. On the frozen/stale rungs a marker replaces the
        // rows and the computer keeps serving its last weights: kFrozenHard
        // stops feeding the hard recursion, kStaleWeights both tasks.
        for (const bool hard : {false, true}) {
          const Task wt = hard ? Task::kHardWeight : Task::kEasyWeight;
          const Edge e = hard ? kDopToHardWt : kDopToEasyWt;
          const bool frozen =
              d.level >= (hard ? DegradationLevel::kFrozenHard
                               : DegradationLevel::kStaleWeights);
          for (int r = 0; r < x.tp.count(wt); ++r) {
            const int dest = x.tp.rank_at(wt, r);
            if (frozen) {
              c.send_marker(dest, tag_for(x.cpi, e));
              continue;
            }
            send_frame(c, s, dest, x.cpi, e,
                       pack(wt_rows[hard][static_cast<size_t>(r)], hard),
                       x.meas, x.acc);
          }
        }
      });
}

// ---------------------------------------------------------------------------
// Tasks 1/2: easy and hard weight computation
// ---------------------------------------------------------------------------
// The easy task owns a slice of the easy bins and solves afresh from its
// training history; the hard task owns (bin, segment) units and updates
// recursive QR factors. One computer per transmit position: training pools
// only same-azimuth looks (paper §3). A fresh rank first sends the quiescent
// weights that beamform each position's first visit (TD_{1,3} bootstrap); a
// revived rank restores its checkpoint instead and resumes at the CPI it
// names.
template <typename Computer>
index_t run_weight_task(Comm& c, Shared& s, int me) {
  constexpr bool hard = std::is_same_v<Computer, stap::HardWeightComputer>;
  const Task task = hard ? Task::kHardWeight : Task::kEasyWeight;
  const Task bf_task = hard ? Task::kHardBeamform : Task::kEasyBeamform;
  const Edge in_edge = hard ? kDopToHardWt : kDopToEasyWt;
  const Edge out_edge = hard ? kHardWtToBf : kEasyWtToBf;
  const auto& p = s.p;
  const index_t nch = hard ? p.num_staggered_channels() : p.num_channels;
  const index_t segs = hard ? p.num_segments : 1;  // weight blocks per bin
  const index_t positions = p.num_beam_positions;
  // The weight and beamforming groups never migrate, so their partitions
  // and rank lists are epoch-0 invariants; only the Doppler fan-in is
  // resolved per CPI.
  const Topology& tp0 = s.topo(0);
  const BlockPartition& wpart = hard ? tp0.part_hwu : tp0.part_ewt;
  const BlockPartition& bpart = hard ? tp0.part_hbf : tp0.part_ebf;
  const index_t w0 = wpart.offset(me);
  const auto blocks = s.train_blocks(task, me);
  std::vector<Computer> computers;
  for (index_t pos = 0; pos < positions; ++pos) {
    const auto& steering = s.steering[static_cast<size_t>(pos)];
    if constexpr (hard) {
      const auto units = slice(s.hard_units, wpart, me);
      computers.emplace_back(
          p, steering, std::vector<stap::HardUnit>(units.begin(), units.end()));
    } else {
      const auto bins = slice(s.easy_bins, wpart, me);
      computers.emplace_back(p, steering,
                             std::vector<index_t>(bins.begin(), bins.end()));
    }
  }
  auto solve = [](const Computer& comp) {
    if constexpr (hard)
      return comp.compute();
    else
      return comp.compute().weights;
  };

  // Beamforming rank r owns bins [b0, b0+bl), i.e. blocks
  // [b0*segs, (b0+bl)*segs) of the bin-major block list, and receives the
  // overlap with this rank's blocks.
  auto send_weights = [&](const std::vector<MatrixCF>& w, index_t for_cpi,
                          PhaseAcc& acc) {
    for (int r = 0; r < tp0.count(bf_task); ++r) {
      const index_t lo = std::max(w0, bpart.offset(r) * segs);
      const index_t hi = std::min(w0 + wpart.length(me),
                                  (bpart.offset(r) + bpart.length(r)) * segs);
      size_t n = 0;
      for (index_t pos = lo; pos < hi; ++pos)
        n += static_cast<size_t>(w[static_cast<size_t>(pos - w0)].size());
      OutFrame<cfloat> f(n);
      cfloat* out = f.elems().data();
      for (index_t pos = lo; pos < hi; ++pos) {
        const auto& wm = w[static_cast<size_t>(pos - w0)];
        out = std::copy_n(wm.data(), wm.size(), out);
      }
      send_frame(c, s, tp0.rank_at(bf_task, r), for_cpi, out_edge,
                 std::move(f), s.measured(for_cpi), acc);
    }
  };
  // Checkpoint the computers' state after every CPI so a spare can resume
  // at exactly the next CPI (keyed by the global rank the spare assumes).
  auto save_ckpt = [&](index_t next_cpi) {
    if (s.ft.spares == 0) return;
    std::ostringstream os;
    for (const auto& comp : computers) comp.save(os);
    std::lock_guard<std::mutex> lock(s.mu);
    auto& ck = s.checkpoints[c.rank()];
    ck.next_cpi = next_cpi;
    ck.blob = os.str();
  };

  // Only a revived incarnation finds a checkpoint under its global rank,
  // and it must find one.
  std::optional<Shared::Checkpoint> resume;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (const auto it = s.checkpoints.find(c.rank());
        it != s.checkpoints.end())
      resume = it->second;
    PPSTAP_CHECK(resume || s.revivals.count(c.rank()) == 0,
                 "no checkpoint for the dead rank");
  }
  index_t start_cpi = 0;
  PhaseAcc boot;  // bootstrap sends; send_frame charges their edge bytes
  if (resume) {
    std::istringstream is(resume->blob);
    for (auto& comp : computers) comp.restore(is);
    start_cpi = resume->next_cpi;
  } else {
    for (index_t pos = 0; pos < positions && pos < s.n_cpis; ++pos)
      send_weights(solve(computers[static_cast<size_t>(pos)]), pos, boot);
    save_ckpt(0);
  }

  // Row positions per (block, Doppler rank); recomputed when a migration
  // resizes the Doppler group.
  int rows_for_dops = -1;
  std::vector<std::vector<std::vector<index_t>>> rows_from(blocks.size());
  // Last solved weights per transmit position: the stale-weights rung
  // resends them without paying for a solve.
  std::vector<std::optional<std::vector<MatrixCF>>> last_w(
      static_cast<size_t>(positions));
  struct Cpi {
    std::vector<MatrixCF> training, w;
    bool complete = true;
    bool markers = false;  // nothing trustworthy to send: let BF shed
  };

  const index_t next = drive<Cpi>(
      c, s, task, start_cpi,
      [&](Cycle& x, Cpi& d) {
        const int dops = x.tp.count(Task::kDopplerFilter);
        if (dops != rows_for_dops) {
          rows_for_dops = dops;
          for (size_t b = 0; b < blocks.size(); ++b) {
            rows_from[b].assign(static_cast<size_t>(dops), {});
            for (int r = 0; r < dops; ++r)
              rows_from[b][static_cast<size_t>(r)] = s.cell_positions_in_slab(
                  blocks[b].cells, r, x.tp.part_k);
          }
        }
        for (const auto& blk : blocks)
          d.training.emplace_back(static_cast<index_t>(blk.cells.size()),
                                  nch);
        for (int r = 0; r < dops; ++r) {
          auto buf = x.in.recv<cfloat>(x.tp.rank_at(Task::kDopplerFilter, r),
                                       x.cpi, in_edge);
          if (!buf) {
            d.complete = false;
            continue;
          }
          size_t off = 0;
          for (size_t b = 0; b < blocks.size(); ++b)
            for (index_t row : rows_from[b][static_cast<size_t>(r)]) {
              PPSTAP_CHECK(off + static_cast<size_t>(nch) <= buf->size(),
                           "short training message");
              for (index_t ch = 0; ch < nch; ++ch)
                d.training[b](row, ch) = (*buf)[off++];
            }
          PPSTAP_CHECK(off == buf->size(), "training message length");
        }
        return true;
      },
      [&](Cycle& x, Cpi& d) {
        // A shed CPI skips the training update (the hard recursion's
        // forgetting state stays untouched; the frozen-hard rung arrives
        // here as a training marker). The current weights still flow
        // downstream so beamforming never starves (degraded adaptivity,
        // not a stalled stream).
        auto& computer = computers[static_cast<size_t>(x.cpi % positions)];
        if (d.complete) {
          if constexpr (hard)
            computer.update(d.training);
          else
            computer.push_training(std::move(d.training));
        }
        auto& cache = last_w[static_cast<size_t>(x.cpi % positions)];
        if (s.ctrl != nullptr &&
            s.ctrl->level_for(x.cpi) >= DegradationLevel::kStaleWeights &&
            cache) {
          d.w = *cache;  // stale rung: resend without solving
        } else if (run_checked(
                       c, s, task, x,
                       [&](int attempt) {
                         d.w = solve(computer);
                         maybe_flip_weights(s, task, x.cpi, c.rank(), attempt,
                                            d.w);
                       },
                       [&] {
                         return weights_unit_norm(d.w, kAbftTolerance);
                       })) {
          cache = d.w;
        } else if (cache) {
          d.w = *cache;  // escalate into the stale-weight fallback
        } else {
          d.markers = true;
        }
        return true;
      },
      [&](Cycle& x, Cpi& d) {
        // These weights serve the *next visit* of the same transmit
        // position.
        const index_t for_cpi = x.cpi + positions;
        if (for_cpi < s.n_cpis) {
          if (d.markers)
            for (int r = 0; r < tp0.count(bf_task); ++r)
              c.send_marker(tp0.rank_at(bf_task, r),
                            tag_for(for_cpi, out_edge));
          else
            send_weights(d.w, for_cpi, x.acc);
        }
        save_ckpt(x.cpi + 1);
      });

  stap::WeightHealth h;
  for (const auto& comp : computers) h += comp.health();
  const int t = static_cast<int>(task);
  s.log.tally(EventKind::kNonfiniteTraining, h.nonfinite_training_blocks,
              c.rank(), t);
  s.log.tally(EventKind::kLoadingRetry, h.loading_retries, c.rank(), t);
  s.log.tally(EventKind::kQuiescentFallback, h.quiescent_fallbacks, c.rank(),
              t);
  s.log.tally(EventKind::kQrResidualRetry, h.qr_residual_retries, c.rank(), t);
  s.log.tally(EventKind::kQrResidualReject, h.qr_residual_rejects, c.rank(),
              t);
  return next;
}

index_t run_weights(Comm& c, Shared& s, Task t, int me) {
  return t == Task::kHardWeight
             ? run_weight_task<stap::HardWeightComputer>(c, s, me)
             : run_weight_task<stap::EasyWeightComputer>(c, s, me);
}

// ---------------------------------------------------------------------------
// Tasks 3/4: beamforming (partitioned along easy/hard bins)
// ---------------------------------------------------------------------------
// `begin` > 0 resumes mid-stream: a spare that assumed a dead beamforming
// rank's identity re-enters here at the CPI the dead rank was processing
// (its weight cache starts cold, so an in-flight CPI whose weights were
// already consumed falls back to the shed path rather than wedging).
index_t run_beamform(Comm& c, Shared& s, Task task, int me, index_t begin) {
  const auto& p = s.p;
  const bool hard = task == Task::kHardBeamform;
  const Task wt_task = hard ? Task::kHardWeight : Task::kEasyWeight;
  const Edge data_edge = hard ? kDopToHardBf : kDopToEasyBf;
  const Edge wt_edge = hard ? kHardWtToBf : kEasyWtToBf;
  const Edge out_edge = hard ? kHardBfToPc : kEasyBfToPc;
  // Weight/BF groups never migrate: epoch-0 partitions are invariant here;
  // the Doppler fan-in and PC fan-out are resolved per CPI.
  const Topology& tp0 = s.topo(0);
  const BlockPartition& part = hard ? tp0.part_hbf : tp0.part_ebf;
  const BlockPartition& wpart = hard ? tp0.part_hwu : tp0.part_ewt;
  const std::vector<index_t>& bin_list = hard ? s.hard_bins : s.easy_bins;
  const index_t nch = hard ? p.num_staggered_channels() : p.num_channels;
  const index_t k = p.num_range;
  const index_t m = p.num_beams;
  const index_t segs = hard ? p.num_segments : 1;
  const auto form = hard ? stap::hard_beamform : stap::easy_beamform;
  const auto check =
      hard ? stap::hard_beamform_check : stap::easy_beamform_check;

  const auto bins = slice(bin_list, part, me);
  const index_t b0 = part.offset(me);
  const index_t bl = part.length(me);
  const index_t positions = p.num_beam_positions;
  // Stale-weight fallback: the last complete weight set received for each
  // transmit position.
  std::vector<std::optional<stap::WeightSet>> wcache(
      static_cast<size_t>(positions));
  struct Cpi {
    stap::WeightSet w;
    cube::CpiCube data, out;
  };

  return drive<Cpi>(
      c, s, task, begin,
      [&](Cycle& x, Cpi& d) {
        bool complete = true;
        // Weights for this CPI (sent by the weight task while processing
        // the previous visit — the temporal dependency).
        d.w.bins.assign(bins.begin(), bins.end());
        d.w.weights.assign(static_cast<size_t>(bl * segs), MatrixCF());
        bool weights_complete = true;
        for (int r = 0; r < tp0.count(wt_task); ++r) {
          auto buf = x.in.recv<cfloat>(tp0.rank_at(wt_task, r), x.cpi,
                                       wt_edge);
          if (!buf) {
            weights_complete = false;
            continue;
          }
          size_t off = 0;
          const index_t my_lo = b0 * segs;
          const index_t my_hi = (b0 + bl) * segs;
          const index_t lo = std::max(wpart.offset(r), my_lo);
          const index_t hi =
              std::min(wpart.offset(r) + wpart.length(r), my_hi);
          for (index_t pos = lo; pos < hi; ++pos) {
            MatrixCF wm(nch, m);
            PPSTAP_CHECK(off + static_cast<size_t>(wm.size()) <= buf->size(),
                         "short weight message");
            std::copy_n(buf->begin() + static_cast<std::ptrdiff_t>(off),
                        static_cast<size_t>(wm.size()), wm.data());
            off += static_cast<size_t>(wm.size());
            d.w.weights[static_cast<size_t>(pos - my_lo)] = std::move(wm);
          }
          PPSTAP_CHECK(off == buf->size(), "weight message length");
        }
        auto& cache = wcache[static_cast<size_t>(x.cpi % positions)];
        if (weights_complete) {
          cache = d.w;  // refresh the fallback for this position
        } else if (cache) {
          d.w = *cache;  // beamform with the position's last known weights
        } else {
          complete = false;  // nothing to beamform with yet
          // Weight markers come only from a weight rank's ABFT escalation;
          // with no cached weights to fall back on, the shed starts here.
          if (x.in.origin == nullptr) x.in.origin = "abft";
        }

        // Doppler data, reassembled into the bin-major (bin, range,
        // channel) cube of Fig. 8.
        d.data = cube::CpiCube(bl, k, nch);
        for (int r = 0; r < x.tp.count(Task::kDopplerFilter); ++r) {
          auto buf = x.in.recv<cfloat>(
              x.tp.rank_at(Task::kDopplerFilter, r), x.cpi, data_edge);
          if (!buf) {
            complete = false;
            continue;
          }
          const index_t dk0 = x.tp.part_k.offset(r);
          const index_t dkl = x.tp.part_k.length(r);
          PPSTAP_CHECK(static_cast<index_t>(buf->size()) == bl * dkl * nch,
                       "doppler data message length");
          size_t off = 0;
          for (index_t b = 0; b < bl; ++b)
            for (index_t kk = 0; kk < dkl; ++kk) {
              std::copy_n(buf->begin() + static_cast<std::ptrdiff_t>(off),
                          static_cast<size_t>(nch),
                          d.data.line(b, dk0 + kk).begin());
              off += static_cast<size_t>(nch);
            }
        }
        return complete;
      },
      [&](Cycle& x, Cpi& d) {
        // The reduced-beams rungs shrink the beamform work; skipped beams
        // stay zero in the output cube, so CFAR simply reports nothing
        // there.
        const index_t active =
            s.ctrl != nullptr ? active_beams_for(s.ctrl->level_for(x.cpi), m)
                              : m;
        return run_checked(
            c, s, task, x,
            [&](int attempt) {
              d.out = form(d.data, d.w, p, active);
              maybe_flip(s, task, x.cpi, c.rank(), attempt,
                         float_view(d.out));
            },
            [&] {
              return check(d.data, d.w, p, d.out, active, kAbftTolerance);
            });
      },
      [&](Cycle& x, Cpi& d) {
        // Route each bin's M x K block to the pulse compression owner of
        // its *global* Doppler bin.
        for (int r = 0; r < x.tp.count(Task::kPulseCompression); ++r) {
          const index_t g0 = x.tp.part_pc.offset(r);
          const index_t g1 = g0 + x.tp.part_pc.length(r);
          const auto in_span = [&](index_t gbin) {
            return gbin >= g0 && gbin < g1;
          };
          const auto nb = static_cast<size_t>(
              std::count_if(bins.begin(), bins.end(), in_span));
          OutFrame<cfloat> f(nb * static_cast<size_t>(m * k));
          cfloat* out = f.elems().data();
          for (index_t b = 0; b < bl; ++b) {
            if (!in_span(bins[static_cast<size_t>(b)])) continue;
            for (index_t mm = 0; mm < m; ++mm) {
              auto line = d.out.line(b, mm);
              out = std::copy(line.begin(), line.end(), out);
            }
          }
          send_frame(c, s, x.tp.rank_at(Task::kPulseCompression, r), x.cpi,
                     out_edge, std::move(f), x.meas, x.acc);
        }
      });
}

// ---------------------------------------------------------------------------
// Task 5: pulse compression (partitioned along all Doppler bins)
// ---------------------------------------------------------------------------
index_t run_pc(Comm& c, Shared& s, index_t begin) {
  const auto& p = s.p;
  const index_t m = p.num_beams;
  const index_t k = p.num_range;
  // The beamforming groups never migrate: their partitions and rank lists
  // are epoch-0 invariants. This rank's own bin span is per CPI.
  const Topology& tp0 = s.topo(0);
  stap::PulseCompressor compressor(p, s.replica);
  struct Cpi {
    index_t g0 = 0, gl = 0;  // this rank's span of global Doppler bins
    cube::CpiCube bf;
    cube::RealCube power;
    std::vector<double> row_energy;
  };

  return drive<Cpi>(
      c, s, Task::kPulseCompression, begin,
      [&](Cycle& x, Cpi& d) {
        d.g0 = x.tp.part_pc.offset(x.me);
        d.gl = x.tp.part_pc.length(x.me);
        d.bf = cube::CpiCube(d.gl, m, k);
        bool complete = true;
        for (const bool hard : {false, true}) {
          const Task bf_task = hard ? Task::kHardBeamform : Task::kEasyBeamform;
          const BlockPartition& part = hard ? tp0.part_hbf : tp0.part_ebf;
          const auto& bin_list = hard ? s.hard_bins : s.easy_bins;
          for (int r = 0; r < tp0.count(bf_task); ++r) {
            auto buf = x.in.recv<cfloat>(tp0.rank_at(bf_task, r), x.cpi,
                                         hard ? kHardBfToPc : kEasyBfToPc);
            if (!buf) {
              complete = false;
              continue;
            }
            size_t off = 0;
            const auto row = static_cast<size_t>(m * k);
            for (index_t gbin : slice(bin_list, part, r)) {
              if (gbin < d.g0 || gbin >= d.g0 + d.gl) continue;
              PPSTAP_CHECK(off + row <= buf->size(),
                           "short beamformed message");
              std::copy_n(buf->begin() + static_cast<std::ptrdiff_t>(off),
                          row, &d.bf.at(gbin - d.g0, 0, 0));
              off += row;
            }
            PPSTAP_CHECK(off == buf->size(), "beamformed message length");
          }
        }
        return complete;
      },
      [&](Cycle& x, Cpi& d) {
        const index_t active =
            s.ctrl != nullptr ? active_beams_for(s.ctrl->level_for(x.cpi), m)
                              : m;
        return run_checked(
            c, s, Task::kPulseCompression, x,
            [&](int attempt) {
              d.power = compressor.compress(
                  d.bf, active, s.integ.enabled ? &d.row_energy : nullptr);
              maybe_flip(s, Task::kPulseCompression, x.cpi, c.rank(), attempt,
                         float_view(d.power));
            },
            [&] {
              return stap::pc_energy_check(d.power, d.row_energy, active,
                                           kAbftTolerance);
            });
      },
      [&](Cycle& x, Cpi& d) {
        for (int r = 0; r < x.tp.count(Task::kCfar); ++r) {
          const cube::IndexRange ov =
              cube::intersect(x.tp.part_pc, x.me, x.tp.part_cfar, r);
          OutFrame<float> f(static_cast<size_t>(ov.length() * m * k));
          float* out = f.elems().data();
          for (index_t bin = ov.begin; bin < ov.end; ++bin)
            out = std::copy_n(&d.power.at(bin - d.g0, 0, 0), m * k, out);
          send_frame(c, s, x.tp.rank_at(Task::kCfar, r), x.cpi, kPcToCfar,
                     std::move(f), x.meas, x.acc);
        }
      });
}

// ---------------------------------------------------------------------------
// Task 6: CFAR (partitioned along all Doppler bins); pipeline sink
// ---------------------------------------------------------------------------
// The sink never takes the driver's shed exit — it has no downstream group.
// A shed CPI still reaches its send phase, the detection-report commit,
// which completes it as shed instead of stalling the stream on incomplete
// power data.
index_t run_cfar(Comm& c, Shared& s, index_t begin) {
  const auto& p = s.p;
  const index_t m = p.num_beams;
  const index_t k = p.num_range;
  struct Cpi {
    std::vector<index_t> bins;  // this rank's global Doppler bins
    cube::RealCube power;
    std::vector<stap::Detection> dets;
    bool shed = false;
  };

  return drive<Cpi>(
      c, s, Task::kCfar, begin,
      [&](Cycle& x, Cpi& d) {
        const index_t c0 = x.tp.part_cfar.offset(x.me);
        const index_t cl = x.tp.part_cfar.length(x.me);
        for (index_t i = 0; i < cl; ++i) d.bins.push_back(c0 + i);
        d.power = cube::RealCube(cl, m, k);
        for (int r = 0; r < x.tp.count(Task::kPulseCompression); ++r) {
          const cube::IndexRange ov =
              cube::intersect(x.tp.part_pc, r, x.tp.part_cfar, x.me);
          auto buf = x.in.recv<float>(
              x.tp.rank_at(Task::kPulseCompression, r), x.cpi, kPcToCfar);
          if (!buf) {
            d.shed = true;
            continue;
          }
          PPSTAP_CHECK(static_cast<index_t>(buf->size()) ==
                           ov.length() * m * k,
                       "power message length");
          size_t off = 0;
          for (index_t bin = ov.begin; bin < ov.end; ++bin) {
            std::copy_n(buf->begin() + static_cast<std::ptrdiff_t>(off),
                        static_cast<size_t>(m * k),
                        &d.power.at(bin - c0, 0, 0));
            off += static_cast<size_t>(m * k);
          }
        }
        return true;
      },
      [&](Cycle& x, Cpi& d) {
        // A shed CPI reports no detections.
        if (d.shed) {
          record_shed(c, s, Task::kCfar, x, x.in.origin);
        } else if (!run_checked(
                       c, s, Task::kCfar, x,
                       [&](int attempt) {
                         d.dets = stap::cfar_detect(d.power, d.bins, p);
                         maybe_flip_detections(s, x.cpi, c.rank(), attempt,
                                               d.dets);
                       },
                       [&] {
                         return stap::verify_detections(d.dets, d.power,
                                                        d.bins, p);
                       })) {
          // Persistently corrupt report: suppress it and shed the CPI
          // rather than publish wrong detections.
          d.dets.clear();
          d.shed = true;
          record_shed(c, s, Task::kCfar, x, "abft");
        }
        return true;
      },
      [&](Cycle& x, Cpi& d) {
        const index_t cpi = x.cpi;
        bool cpi_done = false;
        bool cpi_shed = false;
        bool quorum_shed = false;
        double latency = 0.0;
        std::vector<index_t> retro;
        {
          std::lock_guard<std::mutex> lock(s.mu);
          // Quorum completion: a permanently dead CFAR peer will never
          // tick, so the CPI completes on the live members alone — and must
          // shed, since the corpse's range slice is missing from the
          // report. Post-shrink epochs drop the corpse from the group, so
          // live == group and coverage is whole again. While the peer is
          // merely dead-recoverable (a pool spare will revive it and
          // deliver its ticks) the full group count stands.
          const auto live = static_cast<int>(
              live_members(s, x.tp, Task::kCfar).size());
          if (live < x.tp.count(Task::kCfar)) {
            quorum_shed = !d.shed;
            d.shed = true;
            d.dets.clear();
            // Sweep CPIs this rank already ticked at full group strength
            // whose last tick died with the peer: complete them as shed
            // now, or the admission backlog pins on completions that can
            // never come.
            for (index_t j = 0; j < cpi; ++j) {
              const auto ji = static_cast<size_t>(j);
              if (s.completion[ji] > 0.0) continue;
              const auto live_j = static_cast<int>(
                  live_members(s, s.topo(j), Task::kCfar).size());
              if (s.cfar_done[ji] >= live_j && live_j > 0) {
                sweep_cpi(s, j, c.rank(), static_cast<int>(Task::kCfar));
                s.completion[ji] = WallTimer::now();
                retro.push_back(j);
              }
            }
          }
          if (d.shed) s.shed[static_cast<size_t>(cpi)] = 1;
          auto& sink = s.detections[static_cast<size_t>(cpi)];
          // A shed CPI reports nothing: wipe contributions a peer banked
          // before this rank learned the CPI cannot complete whole (e.g.
          // the dead CFAR peer ticked here before dying mid-stream).
          if (d.shed) sink.clear();
          sink.insert(sink.end(), d.dets.begin(), d.dets.end());
          if (++s.cfar_done[static_cast<size_t>(cpi)] >= live &&
              s.completion[static_cast<size_t>(cpi)] == 0.0) {
            const double done = WallTimer::now();
            s.completion[static_cast<size_t>(cpi)] = done;
            cpi_done = true;
            cpi_shed = s.shed[static_cast<size_t>(cpi)] != 0;
            const double in = s.input_ready[static_cast<size_t>(cpi)];
            latency = in > 0.0 ? done - in : 0.0;
          }
        }
        // The sink closes the overload-control loop: latency samples drive
        // the SLO term, completions release throttled producers.
        if (cpi_done && s.ctrl != nullptr)
          s.ctrl->on_complete(cpi, latency, cpi_shed);
        // A dead CFAR peer's missing slice sheds at the sink itself, and so
        // does every CPI its death left incomplete (the sweep).
        if (quorum_shed) record_shed(c, s, Task::kCfar, x, "dead_peer");
        if (s.ctrl != nullptr)
          for (const index_t j : retro) s.ctrl->on_complete(j, 0.0, true);
        // Detector tick from the sink, not the coordinator: the pipelined
        // front can sprint arbitrarily far ahead of a straggler (and exit
        // its loop before the victim has min_samples), while the sink only
        // reaches CPI i after every upstream rank has sampled it — scans
        // always score mature statistics.
        if (x.me == 0) health_scan(s, x.tp, cpi);
      });
}

// ---------------------------------------------------------------------------
// Role dispatch
// ---------------------------------------------------------------------------
// Runs whatever tasks this rank's topology role demands from `cpi` to the
// end of the stream. Each task returns the CPI at which a committed
// migration changed this rank's role (only the migratable Doppler / PC /
// CFAR groups ever do) and the loop re-enters the new task's body there.
// Shared by the normal per-rank driver body (cpi 0) and by a spare that
// just assumed a dead rank's identity (the dead rank's frozen progress).
void run_roles(Comm& c, Shared& s, index_t cpi) {
  const int rank = c.rank();
  while (cpi < s.n_cpis) {
    const Topology::Role role = s.topo(cpi).role_of(rank);
    PPSTAP_CHECK(role.local >= 0, "rank not assigned to any task");
    switch (role.task) {
      case Task::kDopplerFilter:
        cpi = run_doppler(c, s, cpi);
        break;
      case Task::kEasyWeight:
      case Task::kHardWeight:
        cpi = run_weights(c, s, role.task, role.local);
        break;
      case Task::kEasyBeamform:
      case Task::kHardBeamform:
        cpi = run_beamform(c, s, role.task, role.local, cpi);
        break;
      case Task::kPulseCompression:
        cpi = run_pc(c, s, cpi);
        break;
      case Task::kCfar:
        cpi = run_cfar(c, s, cpi);
        break;
    }
  }
  // Last CFAR rank (under the final topology) out releases the idle
  // spares. Only ranks whose *final* role is CFAR count: a rank migrating
  // away mid-stream must not tick the counter, and a revived CFAR rank
  // ticks in place of the one that died.
  const Topology& tf = s.topo(s.n_cpis - 1);
  if (tf.role_of(rank).task != Task::kCfar) return;
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    last = ++s.cfar_ranks_finished == tf.count(Task::kCfar);
  }
  if (last) s.world->release_spares();
}

// ---------------------------------------------------------------------------
// Spare pool: hot standby for every pipeline role
// ---------------------------------------------------------------------------
// Each pool member blocks until a topology rank dies (or the last CFAR rank
// releases the pool), then assumes the dead rank's identity and mailbox and
// re-enters through run_roles at the dead rank's frozen progress point (the
// top-of-loop store a dead rank can never advance past). A weight role
// restores its per-CPI checkpoint there and resumes at exactly the CPI it
// would have processed next; a stateless role (Doppler / beamform / pulse
// compression / CFAR) resumes at the frozen CPI — any inputs the dead rank
// had already consumed for it are re-driven by the deadline/shed
// machinery, so the in-flight CPI either completes bit-exactly (mailbox
// intact) or sheds cleanly. Downstream ranks never notice beyond the
// recovery stall (paper §6's reallocation stall, measured here per
// takeover as MTTR; drive() records the heal).
void run_spare(Comm& c, Shared& s) {
  std::optional<int> dead;
  try {
    dead = s.world->wait_for_death();
  } catch (const Error&) {
    return;  // world aborted while standing by
  }
  if (!dead) return;
  const index_t at = std::max<index_t>(0, s.eng->progress_of(*dead));
  c.take_over(*dead);
  // A quarantined straggler's death is attributed to the monitor, and
  // the revival clears its eviction request and statistics — the rank id
  // now names healthy replacement hardware, so per-rank slowdown rules
  // keyed on the old identity no longer apply.
  Shared::Revival rv{s.world->death_time(*dead), "death"};
  if (s.health != nullptr) {
    if (s.health->was_quarantined(*dead)) rv.cause = "quarantine";
    s.health->on_revived(*dead);
  }
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.revivals[*dead] = rv;
  }
  run_roles(c, s, at);
}

// Post-stream accounting, recorded before the log is read.
void record_exit(Shared& s, comm::World& world, const HealthMonitor& monitor) {
  // A sink-side death can leave a CPI permanently incomplete: its
  // cfar_done counter never reaches the group size, so completion stays
  // zero even though the stream moved on. Sweep every such CPI into a
  // shed (no CPI is ever silently lost) and suppress its partial
  // detections, exactly like any other shed.
  bool any_rank_dead = false;
  for (int g = 0; g < s.a.total(); ++g) any_rank_dead |= world.rank_dead(g);
  for (index_t cpi = 0; any_rank_dead && cpi < s.n_cpis; ++cpi)
    if (s.completion[static_cast<size_t>(cpi)] == 0.0)
      sweep_cpi(s, cpi, -1, -1);
  // A topology rank dead at exit with neither a heal nor a shrink in
  // flight died uncovered: its CPIs were shed (prompt dead-peer statuses,
  // not hangs) and the gap is recorded here.
  const std::vector<Event> heals = s.log.snapshot().heals();
  const std::vector<int> shrunk = s.eng->shrunk_ranks();
  for (int g = 0; g < s.a.total(); ++g) {
    if (!world.rank_dead(g)) continue;
    bool covered = std::find(shrunk.begin(), shrunk.end(), g) != shrunk.end();
    for (const Event& h : heals) covered |= h.rank == g;
    if (!covered)
      s.log.record({EventKind::kHealUncovered, 0.0, g,
                    static_cast<int>(s.topo(s.n_cpis - 1).role_of(g).task)});
  }
  s.eng->finish();
  monitor.record_ranks();
  // Exit tallies: transport per rank, injected faults per run.
  const auto& stats = world.last_stats();
  for (size_t r = 0; r < stats.size(); ++r) {
    const int rank = static_cast<int>(r);
    s.log.tally(EventKind::kRetransmit, stats[r].retransmissions, rank);
    s.log.tally(EventKind::kDupDiscarded, stats[r].dup_discarded, rank);
  }
  if (s.plan == nullptr) return;
  const comm::FaultStats fs = s.plan->stats();
  s.log.tally(EventKind::kFrameDelayed, fs.delayed);
  s.log.tally(EventKind::kFrameDropped, fs.dropped);
  s.log.tally(EventKind::kFrameCorrupted, fs.corrupted);
  s.log.tally(EventKind::kFrameJittered, fs.jittered);
  s.log.tally(EventKind::kFrameDuplicated, fs.duplicated);
  s.log.tally(EventKind::kStageSlowdown, fs.slowed);
  s.log.tally(EventKind::kFlip, fs.flips);
  s.log.tally(EventKind::kKill, fs.kills);
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

ParallelStapPipeline::ParallelStapPipeline(const stap::StapParams& p,
                                           const NodeAssignment& assignment,
                                           linalg::MatrixCF steering,
                                           std::vector<cfloat> replica)
    : ParallelStapPipeline(
          p, assignment,
          std::vector<linalg::MatrixCF>(
              static_cast<size_t>(p.num_beam_positions), steering),
          std::move(replica)) {}

ParallelStapPipeline::ParallelStapPipeline(
    const stap::StapParams& p, const NodeAssignment& assignment,
    std::vector<linalg::MatrixCF> steering_per_position,
    std::vector<cfloat> replica)
    : p_(p),
      assign_(assignment),
      steering_(std::move(steering_per_position)),
      replica_(std::move(replica)) {
  p_.validate();
  assign_.validate(p_);
  PPSTAP_REQUIRE(static_cast<index_t>(steering_.size()) ==
                     p_.num_beam_positions,
                 "one steering matrix per transmit beam position expected");
  for (const auto& s : steering_)
    PPSTAP_REQUIRE(s.rows() == p_.num_channels && s.cols() == p_.num_beams,
                   "steering matrix must be J x M");
}

PipelineResult ParallelStapPipeline::run(
    const synth::ScenarioGenerator& scenario, index_t num_cpis,
    index_t warmup, index_t cooldown) {
  PPSTAP_REQUIRE(num_cpis > warmup + cooldown,
                 "need at least one measured CPI");
  PPSTAP_REQUIRE(scenario.params().num_range == p_.num_range &&
                     scenario.params().num_channels == p_.num_channels &&
                     scenario.params().num_pulses == p_.num_pulses,
                 "scenario dimensions must match STAP parameters");

  // Effective params for this run: the integrity layer arms the
  // weight-path QR residual gate at the same tolerance as the
  // pipeline-level invariants, without mutating the pipeline object.
  stap::StapParams params = p_;
  if (integ_.enabled) params.abft_tolerance = kAbftTolerance;

  CpiSource source(scenario);
  Shared s{params,  assign_, steering_, replica_, source,
           num_cpis, warmup,  cooldown};
  s.easy_bins = p_.easy_bins();
  s.hard_bins = p_.hard_bins();
  s.easy_cells = stap::easy_training_cells(p_);
  for (index_t seg = 0; seg < p_.num_segments; ++seg)
    s.hard_cells.push_back(stap::hard_training_cells(p_, seg));
  s.hard_units = stap::HardWeightComputer::units_for_bins(
      p_, std::span<const index_t>(s.hard_bins));
  s.input_ready.assign(static_cast<size_t>(num_cpis), 0.0);
  s.completion.assign(static_cast<size_t>(num_cpis), 0.0);
  s.cfar_done.assign(static_cast<size_t>(num_cpis), 0);
  s.detections.assign(static_cast<size_t>(num_cpis), {});
  s.ft = ft_;
  s.shed.assign(static_cast<size_t>(num_cpis), 0);
  s.integ = integ_;
  s.plan = plan_;

  // Gray-failure detector: shared by every rank thread through Shared.
  // Constructed unconditionally (cheap), wired only when enabled so the
  // disabled path costs nothing per CPI.
  HealthMonitor monitor(hc_, assign_.total() + ft_.spares, s.log);
  if (hc_.enabled) s.health = &monitor;

  // The controller lives on the driver's stack for the run; every rank
  // shares it through Shared, and the source gates admission on it.
  std::optional<OverloadController> ctrl;
  if (ov_.enabled) {
    ctrl.emplace(ov_, num_cpis, s.log);
    s.ctrl = &*ctrl;
    source.set_overload_controller(&*ctrl);
  }

  if (obs::tracing_enabled()) {
    for (int t = 0; t < stap::kNumTasks; ++t)
      obs::set_track_name(t, stap::task_name(static_cast<stap::Task>(t)));
    if (ft_.any() || plan_ != nullptr || ov_.enabled)
      obs::set_track_name(obs::kFaultTrack, "fault");
    if (integ_.enabled)
      obs::set_track_name(obs::kIntegrityTrack, "integrity");
    obs::set_track_name(obs::kSourceTrack, "source");
  }

  // Extra ranks beyond the assignment form the world's spare pool; they
  // stay idle unless a topology rank dies. While the pool holds an idle
  // member every topology rank is recoverable — the pool is universal, any
  // role can be assumed (weight state from its per-CPI checkpoint, the
  // stateless roles from the dead rank's frozen progress point).
  comm::World world(assign_.total() + ft_.spares);
  world.set_fault_plan(plan_);
  world.set_spare_pool(ft_.spares);
  s.world = &world;

  // The migration engine is always installed: with elastic disabled and no
  // forced migrations it never leaves epoch 0 and every topo(cpi) lookup is
  // the initial layout. An idle pool spare (rank >= assign_.total()) is not
  // part of any topology and never participates in a barrier.
  ElasticEngine eng(&world, params, Topology::initial(params, assign_), el_,
                    num_cpis, s.log);
  s.eng = &eng;
  if (s.ctrl != nullptr && el_.any())
    s.ctrl->set_elastic_assist(
        [&eng] { return eng.request_overload_assist(); });
  // Pool-exhausted fallback: a permanently dead rank's group shrinks to
  // the survivors through the quiesce/re-plan/commit protocol. The commit
  // callback records the heal (MTTR = death to epoch commit) and tells the
  // overload controller capacity dropped.
  if (ft_.heal_shrink)
    eng.set_shrink(true, [&world, &s](int rank, int task, index_t begin_cpi,
                                      double commit_time) {
      const double t_death = world.death_time(rank);
      const bool quarantined =
          s.health != nullptr && s.health->was_quarantined(rank);
      Event e{EventKind::kHealShrink, commit_time, rank, task, begin_cpi,
              quarantined ? "quarantine" : "death"};
      e.seconds = t_death > 0.0 ? commit_time - t_death : 0.0;
      s.log.record(e);
      if (s.ctrl != nullptr) s.ctrl->note_capacity_loss();
    });

  // The radar front end runs beside the ranks. The guard stops it on every
  // exit (normal completion, a rank's exception, a world abort) before the
  // controller it may be parked in goes out of scope.
  source.start(num_cpis);
  {
    struct StopSource {
      CpiSource& src;
      ~StopSource() { src.stop(); }
    } stop_source{source};
    world.run([&](Comm& c) {
      if (c.rank() >= s.a.total()) return run_spare(c, s);
      run_roles(c, s, 0);
    });
  }

  // --- assemble the result; all accounting derives from the event log ------
  record_exit(s, world, monitor);
  PipelineResult result;
  result.events = s.log.snapshot();
  Summaries sum = summarize(result.events);
  result.faults = std::move(sum.faults);
  result.overload = std::move(sum.overload);
  result.integrity = std::move(sum.integrity);
  publish(result.events);

  result.detections = std::move(s.detections);
  for (auto& dets : result.detections)
    std::sort(dets.begin(), dets.end(), [](const auto& a, const auto& b) {
      return std::tie(a.doppler_bin, a.beam, a.range) <
             std::tie(b.doppler_bin, b.beam, b.range);
    });

  for (int t = 0; t < stap::kNumTasks; ++t) {
    const auto ranks = static_cast<double>(s.timing_ranks[static_cast<size_t>(t)]);
    // A task can legitimately end the run with zero contributions when its
    // every rank died uncovered (killed before committing its phase
    // accumulator, with the spare already spent): leave its timing zero.
    if (ranks <= 0) {
      const Topology& tf = s.topo(s.n_cpis - 1);
      bool any_dead = false;
      for (int r = 0; r < tf.count(static_cast<Task>(t)); ++r)
        any_dead |= world.rank_dead(tf.rank_at(static_cast<Task>(t), r));
      PPSTAP_CHECK(any_dead, "no timing contributions for a live task");
      continue;
    }
    result.timing[static_cast<size_t>(t)] = TaskTiming{
        s.timing_sum[static_cast<size_t>(t)].recv / ranks,
        s.timing_sum[static_cast<size_t>(t)].comp / ranks,
        s.timing_sum[static_cast<size_t>(t)].send / ranks};
  }

  double gap_sum = 0.0;
  int gap_count = 0;
  double latency_sum = 0.0;
  int latency_count = 0;
  // Latency histogram: exponential buckets from 10 µs to ~1000 s cover
  // every regime from the small-test pipelines to the full paper runs.
  obs::Histogram latency_hist(
      obs::Histogram::exponential_bounds(1e-5, 1e3, 1.35));
  for (index_t cpi = 0; cpi < num_cpis; ++cpi) {
    if (!s.measured(cpi)) continue;
    const auto i = static_cast<size_t>(cpi);
    if (cpi > 0 && s.completion[i - 1] > 0.0) {
      gap_sum += s.completion[i] - s.completion[i - 1];
      ++gap_count;
    }
    // A shed CPI still completed (its gap counts toward throughput — the
    // stream kept moving) but produced no detections, so its latency is
    // not a report latency and is excluded from the averages.
    if (s.shed[i]) continue;
    const double lat = s.completion[i] - s.input_ready[i];
    result.per_cpi_index.push_back(cpi);
    result.per_cpi_latency.push_back(lat);
    latency_hist.observe(lat);
    latency_sum += lat;
    ++latency_count;
  }
  if (gap_count > 0 && gap_sum > 0.0)
    result.throughput = static_cast<double>(gap_count) / gap_sum;
  if (latency_count > 0)
    result.latency = latency_sum / static_cast<double>(latency_count);
  result.latency_percentiles = {latency_hist.quantile(0.50),
                                latency_hist.quantile(0.95),
                                latency_hist.quantile(0.99)};
  result.latency_histogram = latency_hist.snapshot();

  // Queue-wait gauge per task: mean blocked-in-recv seconds per CPI over
  // the task's ranks and the whole stream. Ranks are attributed to their
  // final-epoch role (a migrated rank's pre-migration wait rides along —
  // acceptable smear for a gauge that feeds relative comparisons).
  const auto& stats = world.last_stats();
  const Topology& tf = eng.final_topology();
  for (int t = 0; t < stap::kNumTasks; ++t) {
    const stap::Task task = static_cast<stap::Task>(t);
    double wait = 0.0;
    for (int r = 0; r < tf.count(task); ++r)
      wait +=
          stats[static_cast<size_t>(tf.rank_at(task, r))].recv_wait_seconds;
    result.queue_wait_per_cpi[static_cast<size_t>(t)] =
        wait / (static_cast<double>(tf.count(task)) *
                static_cast<double>(num_cpis));
  }

  for (int e = 0; e < kNumPipelineEdges; ++e)
    result.bytes_per_edge_per_cpi[static_cast<size_t>(e)] =
        static_cast<double>(
            s.edge_bytes[static_cast<size_t>(e)].load(
                std::memory_order_relaxed)) /
        static_cast<double>(s.measured_count());

  static_assert(std::tuple_size_v<decltype(result.retry_histogram)> ==
                    comm::kRetryEdgeBuckets,
                "retry histogram buckets must mirror the comm layer");
  static_assert(
      std::tuple_size_v<decltype(result.retry_histogram)::value_type> ==
          comm::kMaxRetransmitAttempts + 1,
      "retry histogram attempts must mirror the comm layer");
  for (const auto& st : stats)
    for (size_t b = 0; b < st.retry_histogram.size(); ++b)
      for (size_t a = 0; a < st.retry_histogram[b].size(); ++a)
        result.retry_histogram[b][a] += st.retry_histogram[b][a];
  result.completion_times = s.completion;
  // Every rank thread of this run has exited, but glibc keeps what each
  // freed in its per-thread arena, and the next run's threads attach to
  // those arenas in another order: a process that runs the pipeline again
  // and again would grow its resident set run by run. Hand the free pages
  // back to the system between runs.
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  return result;
}

double barrier_stall_seconds(const PipelineResult& r, index_t barrier_cpi) {
  const std::vector<double>& done = r.completion_times;
  const auto b = static_cast<size_t>(barrier_cpi);
  if (barrier_cpi < 1 || b >= done.size() || done[b] <= 0.0 ||
      done[b - 1] <= 0.0)
    return 0.0;
  std::vector<double> gaps;
  for (size_t i = 1; i < done.size(); ++i)
    if (done[i] > 0.0 && done[i - 1] > 0.0) gaps.push_back(done[i] - done[i - 1]);
  const auto mid = gaps.begin() + static_cast<std::ptrdiff_t>(gaps.size() / 2);
  std::nth_element(gaps.begin(), mid, gaps.end());
  return std::max(0.0, (done[b] - done[b - 1]) - *mid);
}

}  // namespace ppstap::core
