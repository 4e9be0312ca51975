// Tests for the in-process message-passing runtime: point-to-point
// semantics, tag matching, flow control, zero-deadline probes,
// abort-on-error, and the all-to-all personalized exchange pattern the
// pipeline uses.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>

#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "common/timer.hpp"

namespace ppstap::comm {
namespace {

// The nonblocking probe the pipeline drains with: a zero-deadline receive
// delivers a frame only if one is already due.
RecvResult poll(Comm& c, int src, int tag) {
  return c.recv_bytes_for(src, tag, 0.0);
}

// Tag handshake: mark_sent tells rank `to` that everything the caller sent
// it so far is buffered in its mailbox (frames are enqueued at send time);
// wait_sent blocks until rank `from` said so.
constexpr int kSyncTag = 1000;
void mark_sent(Comm& c, int to) { c.send_marker(to, kSyncTag); }
void wait_sent(Comm& c, int from) {
  EXPECT_TRUE(c.recv_bytes_for(from, kSyncTag, 30.0).marker);
}

TEST(World, PingPong) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> payload = {1, 2, 3};
      c.send<int>(1, 7, payload);
      auto echo = c.recv<int>(1, 8);
      ASSERT_EQ(echo.size(), 3u);
      EXPECT_EQ(echo[2], 6);
    } else {
      auto got = c.recv<int>(0, 7);
      for (auto& v : got) v *= 2;
      c.send<int>(0, 8, got);
    }
  });
}

TEST(World, TagMatchingOutOfOrder) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> a = {1}, b = {2}, d = {3};
      c.send<int>(1, 10, a);
      c.send<int>(1, 20, b);
      c.send<int>(1, 30, d);
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      EXPECT_EQ(c.recv<int>(0, 30)[0], 3);
      EXPECT_EQ(c.recv<int>(0, 20)[0], 2);
      EXPECT_EQ(c.recv<int>(0, 10)[0], 1);
    }
  });
}

TEST(World, SameTagPreservesFifoPerSource) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        std::vector<int> v = {i};
        c.send<int>(1, 5, v);
      }
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(c.recv<int>(0, 5)[0], i);
    }
  });
}

// An owned send hands the sender's buffer over: with no fault plan the
// receiver reads the very allocation the sender filled, and the sender is
// left with nothing — one rank owns a frame at a time.
TEST(World, OwnedSendDeliversTheSendersBuffer) {
  World world(2);
  const std::byte* sent = nullptr;  // published to rank 1 by the message
  world.run([&](Comm& c) {
    if (c.rank() == 0) {
      Bytes frame(4096, std::byte{0x5a});
      sent = frame.data();
      c.send_bytes(1, 3, std::move(frame));
      EXPECT_TRUE(frame.empty());
    } else {
      const auto got = c.recv_bytes(0, 3);
      EXPECT_EQ(got.data(), sent);
      ASSERT_EQ(got.size(), 4096u);
      EXPECT_EQ(got.front(), std::byte{0x5a});
    }
  });
  EXPECT_EQ(world.last_stats()[0].bytes_sent, 4096u);
  EXPECT_EQ(world.last_stats()[1].bytes_received, 4096u);
}

TEST(World, EmptyMessagesAreDelivered) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> empty;
      c.send<int>(1, 1, empty);
    } else {
      EXPECT_TRUE(c.recv<int>(0, 1).empty());
    }
  });
}

TEST(World, AllToAllPersonalized) {
  // Every rank sends a distinct value to every other rank — the pipeline's
  // redistribution pattern.
  const int n = 6;
  World world(n);
  world.run([n](Comm& c) {
    for (int dst = 0; dst < n; ++dst) {
      std::vector<int> v = {c.rank() * 100 + dst};
      c.send<int>(dst, 42, v);
    }
    for (int src = 0; src < n; ++src)
      EXPECT_EQ(c.recv<int>(src, 42)[0], src * 100 + c.rank());
  });
}

TEST(World, RankExceptionPropagatesWithoutHanging) {
  World world(3);
  EXPECT_THROW(world.run([](Comm& c) {
                 if (c.rank() == 1) throw Error("rank 1 exploded");
                 // Other ranks block on a receive that will never be
                 // satisfied; the abort must wake them.
                 (void)c.recv<int>(2, 99);
               }),
               Error);
}

TEST(World, FlowControlThrottlesWithoutDeadlock) {
  // Tiny mailbox: the producer must block until the consumer drains, but
  // every message still arrives exactly once.
  World world(2, /*mailbox_capacity_bytes=*/64);
  world.run([](Comm& c) {
    const int count = 100;
    if (c.rank() == 0) {
      for (int i = 0; i < count; ++i) {
        std::vector<int> v(16, i);  // 64 bytes each
        c.send<int>(1, 1, v);
      }
    } else {
      for (int i = 0; i < count; ++i) {
        auto v = c.recv<int>(0, 1);
        ASSERT_EQ(v.size(), 16u);
        EXPECT_EQ(v[0], i);
      }
    }
  });
}

TEST(World, OversizedMessageStillAdmitted) {
  World world(2, /*mailbox_capacity_bytes=*/8);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> big(1000, 7);
      c.send<int>(1, 1, big);
    } else {
      EXPECT_EQ(c.recv<int>(0, 1).size(), 1000u);
    }
  });
}

TEST(World, ZeroDeadlineRecvNeverBlocksAndConsumesOnce) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      EXPECT_EQ(poll(c, 1, 5).status, RecvStatus::kTimeout);  // nothing yet
      mark_sent(c, 1);  // rank 1 sends only after this
      wait_sent(c, 1);
      auto got = poll(c, 1, 5);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(FrameView<int>(std::move(got.bytes))[0], 42);
      EXPECT_EQ(poll(c, 1, 5).status, RecvStatus::kTimeout);  // consumed
    } else {
      std::vector<int> v = {42};
      wait_sent(c, 0);
      c.send<int>(0, 5, v);
      mark_sent(c, 0);
    }
  });
}

TEST(World, ZeroDeadlineRecvMatchesTagsSelectively) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v = {7};
      c.send<int>(1, 99, v);
      mark_sent(c, 1);
    } else {
      wait_sent(c, 0);
      EXPECT_EQ(poll(c, 0, 98).status, RecvStatus::kTimeout);
      EXPECT_TRUE(poll(c, 0, 99).ok());
    }
  });
}

TEST(World, StatsCountBytesAndMessages) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> v(10);
      c.send<double>(1, 3, v);
      c.send<double>(1, 4, v);
    } else {
      (void)c.recv<double>(0, 3);
      (void)c.recv<double>(0, 4);
    }
  });
  const auto& stats = world.last_stats();
  EXPECT_EQ(stats[0].messages_sent, 2u);
  EXPECT_EQ(stats[0].bytes_sent, 160u);
  EXPECT_EQ(stats[1].messages_received, 2u);
  EXPECT_EQ(stats[1].bytes_received, 160u);
}

TEST(World, ReusableAcrossRuns) {
  World world(2);
  for (int round = 0; round < 3; ++round) {
    world.run([round](Comm& c) {
      if (c.rank() == 0) {
        std::vector<int> v = {round};
        c.send<int>(1, 0, v);
      } else {
        EXPECT_EQ(c.recv<int>(0, 0)[0], round);
      }
    });
  }
}

TEST(World, InvalidRankThrows) {
  World world(2);
  EXPECT_THROW(world.run([](Comm& c) {
                 std::vector<int> v = {1};
                 c.send<int>(5, 0, v);
               }),
               Error);
}

TEST(World, SingleRankWorldWorks) {
  World world(1);
  world.run([](Comm& c) {
    std::vector<int> v = {42};
    c.send<int>(0, 0, v);  // self-send
    EXPECT_EQ(c.recv<int>(0, 0)[0], 42);
  });
}

TEST(World, ManyRanksStress) {
  // Ring exchange with 32 ranks on one core: exercises scheduling fairness.
  const int n = 32;
  World world(n);
  world.run([n](Comm& c) {
    const int next = (c.rank() + 1) % n;
    const int prev = (c.rank() + n - 1) % n;
    int token = c.rank();
    for (int step = 0; step < 8; ++step) {
      std::vector<int> v = {token};
      c.send<int>(next, step, v);
      token = c.recv<int>(prev, step)[0];
    }
    // After 8 hops the token originated 8 ranks back.
    EXPECT_EQ(token, (c.rank() + n - 8) % n);
  });
}

// ---------------------------------------------------------------------------
// Abort paths and watchdog
// ---------------------------------------------------------------------------

// Aborts the world when the guarded section does not finish within the
// deadline: a regression that hangs a blocked rank turns into a prompt
// Error here instead of a ctest timeout.
class Watchdog {
 public:
  Watchdog(World& world, double seconds)
      : thread_([&world, seconds, this] {
          std::unique_lock<std::mutex> lock(mu_);
          const auto deadline = std::chrono::duration<double>(seconds);
          if (!cv_.wait_for(lock, deadline, [this] { return disarmed_; }))
            world.request_abort("watchdog deadline exceeded");
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

TEST(WorldAbort, RequestAbortWakesBlockedReceivers) {
  World world(3);
  Watchdog dog(world, 0.2);
  const double t0 = WallTimer::now();
  EXPECT_THROW(world.run([](Comm& c) {
                 // Nobody ever sends tag 99: every rank is blocked until
                 // the watchdog aborts the world.
                 (void)c.recv<int>((c.rank() + 1) % 3, 99);
               }),
               Error);
  EXPECT_LT(WallTimer::now() - t0, 5.0);
}

TEST(WorldAbort, AbortWakesFlowControlBlockedSender) {
  World world(2, /*mailbox_capacity_bytes=*/64);
  EXPECT_THROW(
      world.run([](Comm& c) {
        if (c.rank() == 0) {
          // The consumer never drains: this sender must block on flow
          // control, then observe the abort instead of hanging.
          std::vector<int> v(64, 1);
          for (int i = 0; i < 1000; ++i) c.send<int>(1, 1, v);
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          throw Error("receiver exploded");
        }
      }),
      Error);
}

TEST(WorldAbort, AbortWakesMixedDeadlineAndBlockingReceivers) {
  World world(4);
  Watchdog dog(world, 0.2);
  const double t0 = WallTimer::now();
  EXPECT_THROW(world.run([](Comm& c) {
                 // Half the ranks park in a deadline recv far longer than
                 // the test, half in a blocking recv; nobody ever sends.
                 if (c.rank() % 2 == 0)
                   (void)c.recv_bytes_for(1, 77, 60.0);
                 else
                   (void)c.recv<int>(0, 77);
               }),
               Error);
  EXPECT_LT(WallTimer::now() - t0, 5.0);
}

// ---------------------------------------------------------------------------
// Deadline receives, markers, discard
// ---------------------------------------------------------------------------

TEST(WorldDeadline, RecvForTimesOutThenDelivers) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      // Nothing has been sent yet: rank 1 waits for the handshake.
      auto r = c.recv_bytes_for(1, 3, 0.02);
      EXPECT_EQ(r.status, RecvStatus::kTimeout);
      mark_sent(c, 1);
      auto r2 = c.recv_bytes_for(1, 3, 5.0);
      ASSERT_EQ(r2.status, RecvStatus::kOk);
      EXPECT_FALSE(r2.marker);
      EXPECT_EQ(FrameView<int>(std::move(r2.bytes))[0], 42);
    } else {
      wait_sent(c, 0);  // rank 0 has observed the timeout
      std::vector<int> v = {42};
      c.send<int>(0, 3, v);
    }
  });
}

TEST(WorldDeadline, MarkerDeliveredAsControlFrame) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send_marker(1, 4);
    } else {
      auto r = c.recv_bytes_for(0, 4, 5.0);
      EXPECT_EQ(r.status, RecvStatus::kOk);
      EXPECT_TRUE(r.marker);
      EXPECT_FALSE(r.ok());
      EXPECT_TRUE(r.bytes.empty());
    }
  });
}

TEST(WorldDeadline, DiscardDropsAllMatchingFrames) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v = {1};
      for (int i = 0; i < 3; ++i) c.send<int>(1, 6, v);
      c.send<int>(1, 7, v);  // different tag must survive
      mark_sent(c, 1);
    } else {
      wait_sent(c, 0);
      EXPECT_EQ(c.discard(0, 6), 3u);
      EXPECT_EQ(c.discard(0, 6), 0u);
      EXPECT_TRUE(poll(c, 0, 7).ok());
    }
  });
}

// ---------------------------------------------------------------------------
// Fault injection primitives
// ---------------------------------------------------------------------------

TEST(FaultInjection, DelayHoldsFrameInFlight) {
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::delay_message(0, 1, 7, 0.15));
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v = {5};
      c.send<int>(1, 7, v);
      mark_sent(c, 1);
    } else {
      wait_sent(c, 0);
      // The frame is buffered but not yet due: invisible to the probe.
      EXPECT_EQ(poll(c, 0, 7).status, RecvStatus::kTimeout);
      // The blocking recv waits out the injected latency.
      EXPECT_EQ(c.recv<int>(0, 7)[0], 5);
    }
  });
  EXPECT_EQ(plan.stats().delayed, 1u);
}

TEST(FaultInjection, DropDiscardsExactlyTheMatchedFrame) {
  World world(2);
  FaultPlan plan;
  auto rule = FaultPlan::drop_message(0, 1, 5);
  rule.max_applications = 1;
  plan.add(rule);
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> a = {1}, b = {2};
      c.send<int>(1, 5, a);  // dropped
      c.send<int>(1, 5, b);  // delivered
    } else {
      EXPECT_EQ(c.recv<int>(0, 5)[0], 2);
    }
  });
  EXPECT_EQ(plan.stats().dropped, 1u);
}

TEST(FaultInjection, CorruptionTriggersRetransmission) {
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::corrupt_message(0, 1, 9));  // corrupt once
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v(100);
      std::iota(v.begin(), v.end(), 0);
      c.send<int>(1, 9, v);
    } else {
      // Payload must arrive intact: the checksum failure is repaired from
      // the sender-side pristine copy.
      auto v = c.recv<int>(0, 9);
      ASSERT_EQ(v.size(), 100u);
      for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<size_t>(i)], i);
    }
  });
  EXPECT_EQ(plan.stats().corrupted, 1u);
  EXPECT_GE(world.last_stats()[1].retransmissions, 1u);
  // Tag 9 lands in edge bucket 9; the corrupt-once frame repaired on the
  // first retransmission attempt, so histogram slot 0 counts it.
  EXPECT_EQ(world.last_stats()[1].retry_histogram[9][0], 1u);
}

// The corrupt rule flips a byte of the handed-over buffer itself; the
// pristine copy it keeps when it fires still repairs the frame.
TEST(FaultInjection, CorruptionOfAnOwnedSendIsRetransmitted) {
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::corrupt_message(0, 1, 9));  // corrupt once
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      Bytes frame(256);
      for (size_t i = 0; i < frame.size(); ++i)
        frame[i] = static_cast<std::byte>(i);
      c.send_bytes(1, 9, std::move(frame));
      EXPECT_TRUE(frame.empty());
    } else {
      const auto got = c.recv_bytes(0, 9);
      ASSERT_EQ(got.size(), 256u);
      for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], static_cast<std::byte>(i)) << i;
    }
  });
  EXPECT_EQ(plan.stats().corrupted, 1u);
  EXPECT_EQ(world.last_stats()[1].retransmissions, 1u);
}

TEST(FaultInjection, SeededCoinIsDeterministic) {
  // Two identical runs of a probabilistic plan drop exactly the same
  // messages — the receiver sees the same survivor set both times.
  std::vector<int> survivors[2];
  for (int run = 0; run < 2; ++run) {
    World world(2);
    FaultPlan plan(/*seed=*/1234);
    auto rule = FaultPlan::drop_message(0, 1, 5);
    rule.probability = 0.5;
    plan.add(rule);
    world.set_fault_plan(&plan);
    world.run([&, run](Comm& c) {
      if (c.rank() == 0) {
        for (int i = 0; i < 32; ++i) {
          std::vector<int> v = {i};
          c.send<int>(1, 5, v);
        }
        mark_sent(c, 1);
      } else {
        wait_sent(c, 0);  // all sends (and drops) resolved
        for (auto r = poll(c, 0, 5); r.ok(); r = poll(c, 0, 5))
          survivors[run].push_back(FrameView<int>(std::move(r.bytes))[0]);
      }
    });
    EXPECT_GT(plan.stats().dropped, 0u);
    EXPECT_LT(plan.stats().dropped, 32u);
  }
  EXPECT_EQ(survivors[0], survivors[1]);
}

TEST(FaultInjection, KillIsPerRankDeathNotGlobalAbort) {
  World world(3);
  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(1, 7));
  world.set_fault_plan(&plan);
  // The kill is a per-rank death: run() returns normally.
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v = {1};
      c.send<int>(1, 7, v);
    } else if (c.rank() == 1) {
      EXPECT_THROW((void)c.recv<int>(0, 7), RankKilled);
      throw RankKilled(1);  // rank-level death, observed by World::run
    } else {
      // A peer recv on the dead (unrecoverable) rank reports kPeerDead
      // instead of hanging; sends to it are black-holed, not blocking.
      auto r = c.recv_bytes_for(1, 8, 5.0);
      EXPECT_EQ(r.status, RecvStatus::kPeerDead);
      std::vector<int> v = {2};
      c.send<int>(1, 9, v);
    }
  });
  EXPECT_EQ(plan.stats().kills, 1u);
  EXPECT_TRUE(world.rank_dead(1));
  EXPECT_GT(world.death_time(1), 0.0);
}

TEST(FaultInjection, SpareTakesOverRecoverableDeadRank) {
  World world(3);
  world.set_spare_pool(1);  // rank 2 stands by
  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(1, 7));
  world.set_fault_plan(&plan);
  world.run([&world](Comm& c) {
    if (c.rank() == 0) {
      // The kill fires *before* the recv consumes: this frame must still
      // be in the mailbox when the spare takes over.
      std::vector<int> v = {11};
      c.send<int>(1, 7, v);
      // Plain blocking recv on a recoverable dead rank waits for the
      // spare rather than throwing.
      EXPECT_EQ(c.recv<int>(1, 8)[0], 22);
    } else if (c.rank() == 1) {
      EXPECT_THROW((void)c.recv<int>(0, 7), RankKilled);
      throw RankKilled(1);
    } else {
      auto dead = world.wait_for_death(5.0);
      ASSERT_TRUE(dead.has_value());
      EXPECT_EQ(*dead, 1);
      c.take_over(1);
      EXPECT_EQ(c.rank(), 1);
      // The dead rank's mailbox is intact; kill_on_recv is exhausted
      // (max_applications = 1), so this recv succeeds.
      EXPECT_EQ(c.recv<int>(0, 7)[0], 11);
      std::vector<int> v = {22};
      c.send<int>(0, 8, v);
    }
  });
  EXPECT_FALSE(world.rank_dead(1));
  EXPECT_EQ(plan.stats().kills, 1u);
}

TEST(FaultInjection, WaitForDeathTimesOutWhenNobodyDies) {
  World world(2);
  world.set_spare_pool(1);
  world.run([&world](Comm& c) {
    if (c.rank() == 1) {
      EXPECT_FALSE(world.wait_for_death(0.02).has_value());
    }
  });
}

// A claimed death stays recoverable until its replacement takes over:
// receivers keep waiting for the spare, and the pool count drops only at
// take_over. The last member out makes every rank unrecoverable.
TEST(FaultInjection, ClaimedRankStaysRecoverableUntilTakeOver) {
  World world(3);
  world.set_spare_pool(1);
  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(1, 7));
  world.set_fault_plan(&plan);
  world.run([&world](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v = {5};
      c.send<int>(1, 7, v);
      // The dead source is recoverable: the deadline receive waits for the
      // spare instead of reporting a dead peer.
      RecvResult r = c.recv_bytes_for(1, 8, 5.0);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(FrameView<int>(std::move(r.bytes))[0], 6);
    } else if (c.rank() == 1) {
      EXPECT_THROW((void)c.recv<int>(0, 7), RankKilled);
      throw RankKilled(1);
    } else {
      const auto dead = world.wait_for_death(5.0);
      ASSERT_TRUE(dead.has_value());
      EXPECT_TRUE(world.rank_dead(1));
      EXPECT_TRUE(world.rank_recoverable(1));
      EXPECT_EQ(world.idle_spares(), 1);
      c.take_over(1);
      EXPECT_EQ(world.idle_spares(), 0);
      EXPECT_FALSE(world.rank_recoverable(0));
      EXPECT_FALSE(world.rank_recoverable(1));
      EXPECT_EQ(c.recv<int>(0, 7)[0], 5);
      std::vector<int> v = {6};
      c.send<int>(0, 8, v);
    }
  });
  EXPECT_FALSE(world.rank_dead(1));
}

// After the last pool member took over, no rank is recoverable — the
// revived id included — so a repeat death reaches its receivers as a dead
// peer at once instead of parking them on the full deadline.
TEST(FaultInjection, RepeatDeathAfterPoolDrainsIsPeerDeadAtOnce) {
  World world(3);
  world.set_spare_pool(1);
  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(1, 7));  // the first incarnation
  plan.add(FaultPlan::kill_on_recv(1, 9));  // the revived one
  world.set_fault_plan(&plan);
  world.run([&world](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v = {1};
      c.send<int>(1, 7, v);
      c.send<int>(1, 9, v);
      const double t0 = WallTimer::now();
      const RecvResult r = c.recv_bytes_for(1, 10, 30.0);
      EXPECT_EQ(r.status, RecvStatus::kPeerDead);
      EXPECT_LT(WallTimer::now() - t0, 15.0);
    } else if (c.rank() == 1) {
      EXPECT_THROW((void)c.recv<int>(0, 7), RankKilled);
      throw RankKilled(1);
    } else {
      const auto dead = world.wait_for_death(5.0);
      ASSERT_TRUE(dead.has_value());
      c.take_over(*dead);
      EXPECT_EQ(c.recv<int>(0, 7)[0], 1);
      EXPECT_THROW((void)c.recv<int>(0, 9), RankKilled);
      throw RankKilled(1);
    }
  });
  EXPECT_EQ(plan.stats().kills, 2u);
  EXPECT_TRUE(world.rank_dead(1));
  EXPECT_FALSE(world.rank_recoverable(1));
}

// A pool member blocked without a timeout returns std::nullopt once the
// pool is released, and so does every later wait of the run. (Rank 0
// aborts the world if the release never wakes it, so a broken release
// fails the test instead of hanging it.)
TEST(FaultInjection, ReleasingThePoolWakesABlockedSpare) {
  World world(2);
  world.set_spare_pool(1);
  std::atomic<bool> woke{false};
  world.run([&world, &woke](Comm& c) {
    if (c.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      world.release_spares();
      const double give_up = WallTimer::now() + 30.0;
      while (!woke.load() && WallTimer::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (!woke.load()) world.request_abort("release did not wake the spare");
    } else {
      EXPECT_FALSE(world.wait_for_death().has_value());
      woke.store(true);
      EXPECT_FALSE(world.wait_for_death().has_value());
    }
  });
}

// Pool members are never recoverable themselves: a dead pool member is
// not claimable by another.
TEST(FaultInjection, SpareRanksAreNeverRecoverable) {
  World world(3);
  world.set_spare_pool(2);  // ranks 1 and 2
  EXPECT_TRUE(world.rank_recoverable(0));
  EXPECT_FALSE(world.rank_recoverable(1));
  EXPECT_FALSE(world.rank_recoverable(2));
  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(2, 7));
  world.set_fault_plan(&plan);
  world.run([&world](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v = {1};
      c.send<int>(2, 7, v);
    } else if (c.rank() == 1) {
      EXPECT_FALSE(world.wait_for_death(0.2).has_value());
    } else {
      EXPECT_THROW((void)c.recv<int>(0, 7), RankKilled);
      throw RankKilled(2);
    }
  });
  EXPECT_TRUE(world.rank_dead(2));
  EXPECT_FALSE(world.rank_recoverable(2));
  world.set_spare_pool(0);
  EXPECT_FALSE(world.rank_recoverable(0));
}

TEST(FaultInjection, PlanReplaysIdenticallyAcrossRuns) {
  // World::run resets the plan, so the same rule fires in each run even
  // with max_applications = 1.
  World world(2);
  FaultPlan plan;
  auto rule = FaultPlan::drop_message(0, 1, 5);
  rule.max_applications = 1;
  plan.add(rule);
  world.set_fault_plan(&plan);
  for (int round = 0; round < 2; ++round) {
    world.run([](Comm& c) {
      if (c.rank() == 0) {
        std::vector<int> a = {1}, b = {2};
        c.send<int>(1, 5, a);
        c.send<int>(1, 5, b);
      } else {
        EXPECT_EQ(c.recv<int>(0, 5)[0], 2);
      }
    });
    EXPECT_EQ(plan.stats().dropped, 1u);
  }
}

// A compute flip pinned to one rank lands only on that rank's executions:
// with max_applications = 2 it corrupts both its first execution and its
// recompute, whichever peer of the task group reaches the CPI first.
TEST(FaultInjection, ComputeFlipPinnedToOneRank) {
  FaultPlan plan;
  auto rule = FaultPlan::flip_stage(/*task=*/0, /*cpi=*/10, /*bit=*/30,
                                    /*max_applications=*/2);
  rule.rank = 3;
  plan.add_compute(rule);
  int bit = -1;
  EXPECT_FALSE(plan.compute_flip_due(0, 10, /*rank=*/2, 0, &bit));
  EXPECT_FALSE(plan.compute_flip_due(0, 10, /*rank=*/4, 0, &bit));
  EXPECT_TRUE(plan.compute_flip_due(0, 10, /*rank=*/3, 0, &bit));
  EXPECT_EQ(bit, 30);
  EXPECT_FALSE(plan.compute_flip_due(0, 10, /*rank=*/2, 1, &bit));
  EXPECT_TRUE(plan.compute_flip_due(0, 10, /*rank=*/3, 1, &bit));
  EXPECT_FALSE(plan.compute_flip_due(0, 10, /*rank=*/3, 2, &bit));
  EXPECT_EQ(plan.stats().flips, 2u);
}

// PR 8 (death-path edge case): a sender dies while one of its frames is
// mid-retransmission at the receiver. The receiver must not wedge waiting
// for repairs from a corpse — it burns the budget against the mailbox
// copies and surfaces kCorrupt, and the exhaustion is ledgered in the
// per-edge retry histogram's overflow slot.
TEST(FaultInjection, SenderDeathDuringInFlightRetransmission) {
  World world(3);
  FaultPlan plan;
  auto rule = FaultPlan::corrupt_message(0, 1, 9);
  rule.max_applications = -1;  // every copy, originals and retransmissions
  plan.add(rule);
  plan.add(FaultPlan::kill_on_recv(0, 7));
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v(64);
      std::iota(v.begin(), v.end(), 0);
      c.send<int>(1, 9, v);  // poisoned frame, already in flight
      // Handshake recv that kills the sender while rank 1 is still
      // retrying the poisoned frame.
      EXPECT_THROW((void)c.recv<int>(2, 7), RankKilled);
      throw RankKilled(0);
    } else if (c.rank() == 1) {
      auto r = c.recv_bytes_for(0, 9, 5.0);
      EXPECT_EQ(r.status, RecvStatus::kCorrupt);
    } else {
      std::vector<int> go = {1};
      c.send<int>(0, 7, go);
    }
  });
  EXPECT_TRUE(world.rank_dead(0));
  // The exhausted budget is recorded in the overflow slot of edge
  // bucket 9 (tag 9 < kTagStride).
  EXPECT_EQ(world.last_stats()[1].retry_histogram[9][kMaxRetransmitAttempts],
            1u);
}

// PR 8 (death-path edge case): two recoverable ranks die in the same plan
// while two idle claimants wait. Each wait_for_death claim is exclusive —
// the two claimants take over disjoint corpses and both roles resume.
TEST(FaultInjection, SimultaneousMultiRankKillClaimsAreDisjoint) {
  World world(5);
  world.set_spare_pool(2);  // ranks 3 and 4 stand by
  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(0, 7));
  plan.add(FaultPlan::kill_on_recv(1, 7));
  world.set_fault_plan(&plan);
  std::atomic<unsigned> claimed_mask{0};
  world.run([&world, &claimed_mask](Comm& c) {
    if (c.rank() == 0 || c.rank() == 1) {
      EXPECT_THROW((void)c.recv<int>(2, 7), RankKilled);
      throw RankKilled(c.rank());
    } else if (c.rank() == 2) {
      std::vector<int> v = {1};
      c.send<int>(0, 7, v);
      c.send<int>(1, 7, v);
      // Both corpses were claimed and revived: each claimant answers from
      // the rank it took over.
      EXPECT_EQ(c.recv<int>(0, 8)[0], 100);
      EXPECT_EQ(c.recv<int>(1, 8)[0], 101);
    } else {
      auto dead = world.wait_for_death(5.0);
      ASSERT_TRUE(dead.has_value());
      claimed_mask.fetch_or(1u << *dead);
      c.take_over(*dead);
      std::vector<int> v = {100 + c.rank()};
      c.send<int>(2, 8, v);
    }
  });
  // Disjoint claims: ranks 0 and 1 each claimed exactly once.
  EXPECT_EQ(claimed_mask.load(), 3u);
  EXPECT_EQ(plan.stats().kills, 2u);
  EXPECT_FALSE(world.rank_dead(0));
  EXPECT_FALSE(world.rank_dead(1));
}

// PR 8 (death-path edge case): a rank that already finished its useful
// work dies on a late control message. The death is still detected and
// claimable promptly — wait_for_death doesn't depend on the corpse having
// pending protocol traffic.
TEST(FaultInjection, IdleRankDeathAfterCompletionIsClaimedPromptly) {
  World world(3);
  world.set_spare_pool(1);
  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(1, 99));
  world.set_fault_plan(&plan);
  world.run([&world](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v = {7};
      c.send<int>(1, 5, v);   // real work
      c.send<int>(1, 99, v);  // late control message, kills on receipt
    } else if (c.rank() == 1) {
      EXPECT_EQ(c.recv<int>(0, 5)[0], 7);  // stream complete, now idle
      EXPECT_THROW((void)c.recv<int>(0, 99), RankKilled);
      throw RankKilled(1);
    } else {
      const double t0 = WallTimer::now();
      auto dead = world.wait_for_death(5.0);
      const double elapsed = WallTimer::now() - t0;
      ASSERT_TRUE(dead.has_value());
      EXPECT_EQ(*dead, 1);
      EXPECT_LT(elapsed, 4.0);
      c.take_over(1);
    }
  });
  EXPECT_FALSE(world.rank_dead(1));
  EXPECT_EQ(plan.stats().kills, 1u);
}

TEST(FaultInjection, DuplicateIsDeliveredOnceAndDiscarded) {
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::duplicate_message(0, 1, 11));
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> a = {41}, b = {42};
      c.send<int>(1, 11, a);  // re-delivered in flight
      c.send<int>(1, 11, b);
      mark_sent(c, 1);
    } else {
      // Payloads arrive exactly once, in order; the duplicated copy never
      // surfaces as a third message.
      EXPECT_EQ(c.recv<int>(0, 11)[0], 41);
      EXPECT_EQ(c.recv<int>(0, 11)[0], 42);
      wait_sent(c, 0);
      EXPECT_EQ(poll(c, 0, 11).status, RecvStatus::kTimeout);
    }
  });
  // duplicate_message is count-limited: only the first matching frame is
  // re-delivered, and that one extra copy is discarded by the seq ledger.
  EXPECT_EQ(plan.stats().duplicated, 1u);
  EXPECT_EQ(world.last_stats()[1].dup_discarded, 1u);
}

// The duplicate rule copies a handed-over frame only when it fires; the
// receiver still consumes each payload once.
TEST(FaultInjection, DuplicateOfAnOwnedSendIsDeliveredOnce) {
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::duplicate_message(0, 1, 11));
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      for (const std::byte b : {std::byte{41}, std::byte{42}}) {
        Bytes frame(64, b);
        c.send_bytes(1, 11, std::move(frame));
        EXPECT_TRUE(frame.empty());
      }
      mark_sent(c, 1);
    } else {
      EXPECT_EQ(c.recv_bytes(0, 11), Bytes(64, std::byte{41}));
      EXPECT_EQ(c.recv_bytes(0, 11), Bytes(64, std::byte{42}));
      wait_sent(c, 0);
      EXPECT_EQ(poll(c, 0, 11).status, RecvStatus::kTimeout);
    }
  });
  EXPECT_EQ(plan.stats().duplicated, 1u);
  EXPECT_EQ(world.last_stats()[1].dup_discarded, 1u);
}

TEST(FaultInjection, DuplicateStormDeliversEachPayloadOnce) {
  // Every frame of the edge is re-delivered with a small extra delay (the
  // copies land *after* the originals were consumed); the receiver's seq
  // ledger must swallow all of them.
  constexpr int kMessages = 16;
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::duplicate_edge(/*edge=*/5, kTagStride,
                                     /*probability=*/1.0,
                                     /*extra_delay=*/0.002));
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        std::vector<int> v = {100 + i};
        c.send<int>(1, 5 + kTagStride * i, v);
      }
      mark_sent(c, 1);
    } else {
      for (int i = 0; i < kMessages; ++i)
        EXPECT_EQ(c.recv<int>(0, 5 + kTagStride * i)[0], 100 + i);
      wait_sent(c, 0);
      // Wait out the duplicates' extra delay, then prove none surfaces.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      for (int i = 0; i < kMessages; ++i)
        EXPECT_EQ(poll(c, 0, 5 + kTagStride * i).status,
                  RecvStatus::kTimeout);
    }
  });
  EXPECT_EQ(plan.stats().duplicated, static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(world.last_stats()[1].dup_discarded,
            static_cast<std::uint64_t>(kMessages));
}

TEST(FaultInjection, JitterDelaysButDeliversIntact) {
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::jitter_edge(/*edge=*/3, kTagStride,
                                  /*scale=*/0.005, /*shape=*/1.5,
                                  /*cap=*/0.02));
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 8; ++i) {
        std::vector<int> v = {i};
        c.send<int>(1, 3 + kTagStride * i, v);
      }
    } else {
      // Blocking recv rides out the heavy-tailed delay; payloads intact.
      for (int i = 0; i < 8; ++i)
        EXPECT_EQ(c.recv<int>(0, 3 + kTagStride * i)[0], i);
    }
  });
  EXPECT_EQ(plan.stats().jittered, 8u);
}

TEST(FaultInjection, SlowFactorIsDeterministicPerRankAndCpi) {
  // The kSlow coin is keyed on (rank, cpi), not on call order: two plans
  // with the same seed agree per CPI no matter how threads interleave, and
  // an intermittent rule slows only a strict subset of the stream.
  FaultPlan a(/*seed=*/77), b(/*seed=*/77);
  auto rule = FaultPlan::slow_rank(/*rank=*/2, /*factor=*/8.0,
                                   /*probability=*/0.5);
  a.add(rule);
  b.add(rule);
  int slowed_cpis = 0;
  for (long long cpi = 0; cpi < 32; ++cpi) {
    const double fa = a.slow_factor_due(2, cpi);
    EXPECT_DOUBLE_EQ(fa, b.slow_factor_due(2, cpi));
    EXPECT_TRUE(fa == 1.0 || fa == 8.0);
    slowed_cpis += fa > 1.0 ? 1 : 0;
  }
  EXPECT_GT(slowed_cpis, 0);
  EXPECT_LT(slowed_cpis, 32);
  // A different rank never matches the rule.
  for (long long cpi = 0; cpi < 32; ++cpi)
    EXPECT_EQ(a.slow_factor_due(0, cpi), 1.0);
  EXPECT_EQ(a.stats().slowed, static_cast<std::uint64_t>(slowed_cpis));
}

}  // namespace
}  // namespace ppstap::comm
