// StateStore suite: the §4.3 shared key/value abstraction. Covers the
// per-dict shard bound, FIFO-eviction bookkeeping under overwrite and
// erase/re-put (the generation-stamp regression: a stale FIFO record must
// never evict the live entry it no longer owns), and concurrent access
// across shards (the TSan target).
#include "runtime/state_store.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace flick::runtime {
namespace {

TEST(StateStoreSuite, PutGetEraseRoundTrip) {
  StateStore store;
  EXPECT_FALSE(store.Get("d", "k").has_value());
  store.Put("d", "k", "v1");
  EXPECT_EQ(store.Get("d", "k").value(), "v1");
  EXPECT_TRUE(store.Erase("d", "k"));
  EXPECT_FALSE(store.Get("d", "k").has_value());
  EXPECT_FALSE(store.Erase("d", "k"));
}

TEST(StateStoreSuite, ShardBoundHoldsPerDict) {
  StateStore store(/*max_entries_per_dict=*/64);
  for (int i = 0; i < 10000; ++i) {
    store.Put("bounded", "key" + std::to_string(i), "v");
  }
  // Bound is enforced per shard (max/16 + 1), so the dict-wide ceiling is
  // max + 16 in the worst hash distribution.
  EXPECT_LE(store.Size("bounded"), 64u + 16u);
  // A second dict is bounded independently and unaffected.
  store.Put("other", "k", "v");
  EXPECT_EQ(store.Size("other"), 1u);
}

// Overwriting a key must reuse its FIFO record, not push a duplicate:
// otherwise the phantom records inflate the FIFO against the bound and the
// first eviction of the key leaves a second record that later evicts the
// re-inserted entry prematurely.
TEST(StateStoreSuite, OverwriteDoesNotDuplicateFifoRecord) {
  StateStore store(/*max_entries_per_dict=*/1);  // per-shard bound = 1
  store.Put("d", "k", "v1");
  for (int i = 0; i < 100; ++i) {
    store.Put("d", "k", std::string("v").append(std::to_string(i)));
  }
  // With duplicated records the eviction loop would have popped the live
  // entry long before the 100th overwrite.
  EXPECT_EQ(store.Get("d", "k").value(), "v99");
  EXPECT_EQ(store.Size("d"), 1u);
}

// THE regression this suite exists for: Erase left the key's FIFO record
// behind, so a re-Put pushed a second record; eviction then popped the stale
// record first and erased the LIVE entry prematurely. With a per-shard bound
// of 1 the old code lost the re-put value during the Put itself.
TEST(StateStoreSuite, EraseThenRePutSurvivesEviction) {
  StateStore store(/*max_entries_per_dict=*/1);  // per-shard bound = 1
  store.Put("d", "k", "v1");
  EXPECT_TRUE(store.Erase("d", "k"));
  store.Put("d", "k", "v2");
  EXPECT_EQ(store.Get("d", "k").value(), "v2")
      << "stale FIFO record from the erase evicted the live re-put entry";
  EXPECT_EQ(store.Size("d"), 1u);
}

// Erase/re-put cycles must not let stale FIFO records accumulate (the
// compaction path) nor drift the bound.
TEST(StateStoreSuite, EraseRePutCyclesStayBounded) {
  StateStore store(/*max_entries_per_dict=*/64);
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "cycle" + std::to_string(i % 8);
    store.Put("d", key, std::string("v").append(std::to_string(i)));
    if (i % 2 == 1) {
      EXPECT_TRUE(store.Erase("d", key));
    }
  }
  EXPECT_LE(store.Size("d"), 8u);
  // Every surviving key must hold its most recent value.
  for (int k = 0; k < 8; ++k) {
    const auto v = store.Get("d", "cycle" + std::to_string(k));
    if (v.has_value()) {
      EXPECT_EQ(v->substr(0, 1), "v");
    }
  }
}

// Interleaved erase/re-put with enough distinct keys to run evictions while
// stale records sit mid-FIFO: no premature loss of re-inserted entries.
TEST(StateStoreSuite, EvictionSkipsStaleRecordsMidFifo) {
  StateStore store(/*max_entries_per_dict=*/16);  // per-shard bound = 2
  store.Put("d", "victim", "old");
  EXPECT_TRUE(store.Erase("d", "victim"));
  store.Put("d", "victim", "new");
  // Push unrelated keys through to run the eviction/scrub machinery in
  // every shard.
  for (int i = 0; i < 200; ++i) {
    store.Put("d", "filler" + std::to_string(i), "x");
    // The re-put entry may legitimately age out in FIFO order, but while it
    // IS present it must hold the re-put value, never the pre-erase one.
    const auto v = store.Get("d", "victim");
    if (v.has_value()) {
      EXPECT_EQ(*v, "new");
    }
  }
}

// Concurrent Put/Get/Erase across shards — the TSan target for the shard
// mutexes and the eviction bookkeeping.
TEST(StateStoreSuite, ConcurrentPutGetEraseAcrossShards) {
  StateStore store(/*max_entries_per_dict=*/256);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 2000; ++i) {
        const std::string key = std::string("k").append(std::to_string(i % 64));
        store.Put("shared", key, std::to_string(t));
        (void)store.Get("shared", key);
        if (i % 7 == 0) {
          (void)store.Erase("shared", key);
        }
        (void)store.Size("shared");
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_LE(store.Size("shared"), 64u);
}

}  // namespace
}  // namespace flick::runtime
