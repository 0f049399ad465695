// Unit + stress tests for the lock-free rings, MPMC queue and Notifier.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/mpmc_queue.h"
#include "concurrency/notifier.h"
#include "concurrency/spsc_byte_ring.h"
#include "concurrency/spsc_ring.h"

namespace flick {
namespace {

// ---------------------------------------------------------------- SpscRing ----

TEST(SpscRingTest, PushPopOrdered) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  for (int i = 0; i < 5; ++i) {
    auto v = ring.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRingTest, FullRejectsPush) {
  SpscRing<int> ring(4);
  size_t pushed = 0;
  while (ring.TryPush(static_cast<int>(pushed))) {
    pushed++;
  }
  EXPECT_GE(pushed, 4u);
  EXPECT_FALSE(ring.TryPush(999));
  ring.TryPop();
  EXPECT_TRUE(ring.TryPush(999));
}

TEST(SpscRingTest, FrontPeeksWithoutPop) {
  SpscRing<std::string> ring(4);
  EXPECT_EQ(ring.Front(), nullptr);
  ring.TryPush("x");
  ASSERT_NE(ring.Front(), nullptr);
  EXPECT_EQ(*ring.Front(), "x");
  EXPECT_EQ(ring.SizeApprox(), 1u);
}

TEST(SpscRingTest, MoveOnlyPayload) {
  SpscRing<std::unique_ptr<int>> ring(4);
  ring.TryPush(std::make_unique<int>(5));
  auto v = ring.TryPop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

// Counts live instances, so a test can see which slots a ring constructs.
struct LiveCounted {
  static inline int live = 0;
  int value = 0;
  explicit LiveCounted(int v) : value(v) { ++live; }
  LiveCounted(LiveCounted&& other) noexcept : value(other.value) { ++live; }
  LiveCounted& operator=(LiveCounted&&) = default;
  ~LiveCounted() { --live; }
};

TEST(SpscRingTest, HoldsOnlyLiveElements) {
  LiveCounted::live = 0;
  {
    SpscRing<LiveCounted> ring(64);
    EXPECT_EQ(LiveCounted::live, 0) << "construction must not build any slot";
    // Walk the indices past the wrap point, leaving 5 queued that straddle it.
    for (int i = 0; i < 125; ++i) {
      ASSERT_TRUE(ring.TryPush(LiveCounted(i)));
      ASSERT_TRUE(ring.TryPop().has_value());
    }
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(ring.TryPush(LiveCounted(i)));
    }
    EXPECT_EQ(LiveCounted::live, 5);
    {
      auto v = ring.TryPop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(v->value, 0);
      EXPECT_EQ(LiveCounted::live, 5) << "a pop destroys its slot";
    }
    EXPECT_EQ(LiveCounted::live, 4);
  }
  EXPECT_EQ(LiveCounted::live, 0) << "destruction destroys exactly the queued";
}

// Usable slots are 2^k - 1: the next power of two above the requested
// capacity, less the slot that tells full from empty.
TEST(SpscRingTest, UsableCapacityIsPowerOfTwoMinusOne) {
  for (const auto& [requested, usable] :
       std::vector<std::pair<size_t, size_t>>{{1, 1}, {4, 7}, {7, 7}, {8, 15}, {64, 127}}) {
    SpscRing<int> ring(requested);
    EXPECT_EQ(ring.capacity(), usable) << "requested " << requested;
    size_t pushed = 0;
    while (ring.TryPush(static_cast<int>(pushed))) {
      ++pushed;
    }
    EXPECT_EQ(pushed, usable) << "requested " << requested;
  }
}

TEST(SpscRingTest, TwoThreadStressPreservesSequence) {
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kCount = 200000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount;) {
      if (ring.TryPush(i)) {
        ++i;
      }
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    auto v = ring.TryPop();
    if (v.has_value()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    }
  }
  producer.join();
}

// ------------------------------------------------------------ SpscByteRing ----

TEST(SpscByteRingTest, RoundTrip) {
  SpscByteRing ring(64);
  EXPECT_EQ(ring.Write("hello", 5), 5u);
  char out[8];
  EXPECT_EQ(ring.Read(out, 8), 5u);
  EXPECT_EQ(std::string(out, 5), "hello");
}

TEST(SpscByteRingTest, PartialWriteWhenFull) {
  SpscByteRing ring(16);
  std::string data(32, 'a');
  const size_t n = ring.Write(data.data(), data.size());
  EXPECT_EQ(n, 16u);
  EXPECT_EQ(ring.WritableBytes(), 0u);
}

TEST(SpscByteRingTest, WrapAroundPreservesData) {
  SpscByteRing ring(16);
  char out[16];
  for (int round = 0; round < 100; ++round) {
    std::string data = "chunk" + std::to_string(round % 10);
    ASSERT_EQ(ring.Write(data.data(), data.size()), data.size());
    ASSERT_EQ(ring.Read(out, data.size()), data.size());
    ASSERT_EQ(std::string(out, data.size()), data);
  }
}

TEST(SpscByteRingTest, TwoThreadByteStress) {
  SpscByteRing ring(128);
  constexpr size_t kTotal = 1 << 20;
  std::thread producer([&] {
    uint8_t next = 0;
    size_t sent = 0;
    uint8_t chunk[64];
    while (sent < kTotal) {
      size_t want = std::min<size_t>(sizeof(chunk), kTotal - sent);
      for (size_t i = 0; i < want; ++i) {
        chunk[i] = static_cast<uint8_t>(next + i);
      }
      const size_t n = ring.Write(chunk, want);
      sent += n;
      next = static_cast<uint8_t>(next + n);
    }
  });
  size_t received = 0;
  uint8_t expect = 0;
  uint8_t chunk[64];
  while (received < kTotal) {
    const size_t n = ring.Read(chunk, sizeof(chunk));
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(chunk[i], expect) << "at byte " << received + i;
      ++expect;
    }
    received += n;
  }
  producer.join();
}

// --------------------------------------------------------------- MpmcQueue ----

TEST(MpmcQueueTest, TryPushPop) {
  MpmcQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_EQ(*q.TryPop(), 1);
  EXPECT_EQ(*q.TryPop(), 2);
}

TEST(MpmcQueueTest, BoundedRejectsWhenFull) {
  MpmcQueue<int> q(1);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_FALSE(q.TryPush(2));
}

TEST(MpmcQueueTest, PopBlockingWakesOnPush) {
  MpmcQueue<int> q;
  std::thread t([&] {
    auto v = q.PopBlocking();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.TryPush(7);
  t.join();
}

TEST(MpmcQueueTest, CloseUnblocksWaiters) {
  MpmcQueue<int> q;
  std::thread t([&] { EXPECT_FALSE(q.PopBlocking().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  t.join();
}

TEST(MpmcQueueTest, MultiProducerMultiConsumer) {
  MpmcQueue<int> q;
  constexpr int kPerProducer = 10000;
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&] {
      for (int i = 1; i <= kPerProducer; ++i) {
        while (!q.TryPush(i)) {
        }
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (popped.load() < 2 * kPerProducer) {
        auto v = q.TryPop();
        if (v.has_value()) {
          sum += *v;
          popped++;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const long expected = 2L * kPerProducer * (kPerProducer + 1) / 2;
  EXPECT_EQ(sum.load(), expected);
}

// ---------------------------------------------------------------- Notifier ----

TEST(NotifierTest, NotifyBeforeWaitCancelsWait) {
  Notifier n;
  const uint64_t token = n.PrepareWait();
  n.Notify();
  // Must return immediately despite the long timeout.
  const auto start = std::chrono::steady_clock::now();
  n.Wait(token, std::chrono::seconds(5));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

TEST(NotifierTest, WaitTimesOut) {
  Notifier n;
  const uint64_t token = n.PrepareWait();
  const auto start = std::chrono::steady_clock::now();
  n.Wait(token, std::chrono::milliseconds(20));
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(15));
}

TEST(NotifierTest, CrossThreadWake) {
  Notifier n;
  std::atomic<bool> woke{false};
  std::thread t([&] {
    const uint64_t token = n.PrepareWait();
    n.Wait(token, std::chrono::seconds(5));
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  n.Notify();
  t.join();
  EXPECT_TRUE(woke.load());
}

}  // namespace
}  // namespace flick
