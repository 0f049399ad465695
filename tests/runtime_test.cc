// Runtime tests: message pool (per-worker magazines, exact miss accounting),
// scheduler (policies, affinity, stealing, notify-while-running), channels
// (notification + backpressure), IO poller, IO tasks, compute/merge tasks,
// graph pool, state store, and a platform-level end-to-end echo service.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "buffer/buffer_chain.h"
#include "buffer/buffer_pool.h"
#include "concurrency/spsc_ring.h"
#include "net/sim_transport.h"
#include "runtime/channel.h"
#include "runtime/codec.h"
#include "runtime/compute_task.h"
#include "runtime/io_poller.h"
#include "runtime/io_tasks.h"
#include "runtime/msg.h"
#include "runtime/platform.h"
#include "runtime/scheduler.h"
#include "runtime/state_store.h"
#include "runtime/task_graph.h"
#include "services/static_http.h"

namespace flick::runtime {
namespace {

using namespace std::chrono_literals;

// Spin-waits (bounded) until `cond` holds.
template <typename Cond>
bool WaitFor(Cond cond, std::chrono::milliseconds timeout = 2000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) {
      return true;
    }
    std::this_thread::sleep_for(100us);
  }
  return cond();
}

// ----------------------------------------------------------------- MsgPool ----

TEST(MsgPoolTest, AcquireReleasesBackToPool) {
  MsgPool pool(2);
  {
    MsgRef a = pool.Acquire();
    MsgRef b = pool.Acquire();
    EXPECT_TRUE(a && b);
    EXPECT_EQ(pool.overflow_count(), 0u);
  }
  MsgRef c = pool.Acquire();
  EXPECT_TRUE(c);
  EXPECT_EQ(pool.overflow_count(), 0u);
}

TEST(MsgPoolTest, OverflowFallsBackToHeap) {
  MsgPool pool(1);
  MsgRef a = pool.Acquire();
  MsgRef b = pool.Acquire();  // pool dry
  EXPECT_TRUE(b);
  EXPECT_EQ(pool.overflow_count(), 1u);
}

TEST(MsgPoolTest, AcquiredMsgIsClean) {
  MsgPool pool(1);
  {
    MsgRef a = pool.Acquire();
    a->kind = Msg::Kind::kEof;
    a->bytes = "junk";
    a->route = 3;
  }
  MsgRef b = pool.Acquire();
  EXPECT_EQ(b->kind, Msg::Kind::kBytes);
  EXPECT_TRUE(b->bytes.empty());
  EXPECT_EQ(b->route, -1);
}

// Leaves messages parked in worker 0's and worker 1's magazines: each worker
// thread acquires a batch and releases it into its own magazine.
void ParkInTwoMagazines(MsgPool& pool) {
  for (int worker : {0, 1}) {
    std::thread([&pool, worker] {
      const ScopedWorkerIndex identity(worker);
      std::vector<MsgRef> batch;
      for (int i = 0; i < 40; ++i) {
        batch.push_back(pool.Acquire());
      }
    }).join();
  }
}

// Exact accounting across magazines: a pool whose messages are spread over
// two workers' magazines and the shared list serves exactly `count`
// acquires with no miss — from a worker that parked some, a worker that
// parked none, and a non-worker thread — and counts the next one once.
TEST(MsgPoolTest, MissCountedOnlyWhenEveryMagazineIsDry) {
  constexpr size_t kCount = 200;
  for (int acquirer : {0, 5, -1}) {
    SCOPED_TRACE("acquiring worker " + std::to_string(acquirer));
    MsgPool pool(kCount);
    ParkInTwoMagazines(pool);
    std::vector<MsgRef> held;
    {
      std::optional<ScopedWorkerIndex> identity;
      if (acquirer >= 0) {
        identity.emplace(acquirer);
      }
      for (size_t i = 0; i < kCount; ++i) {
        held.push_back(pool.Acquire());
      }
      EXPECT_EQ(pool.pool_misses(), 0u);
      held.push_back(pool.Acquire());
    }
    EXPECT_EQ(pool.pool_misses(), 1u);
  }
}

TEST(MsgPoolTest, SliceSpillCountedOnlyWhenEveryMagazineIsDry) {
  constexpr size_t kCount = 200;
  MsgPool parent(8);
  MsgPool slice(kCount, &parent);
  ParkInTwoMagazines(slice);
  std::vector<MsgRef> held;
  {
    const ScopedWorkerIndex identity(0);
    for (size_t i = 0; i < kCount; ++i) {
      held.push_back(slice.Acquire());
    }
    EXPECT_EQ(slice.slice_spills(), 0u);
    held.push_back(slice.Acquire());
  }
  EXPECT_EQ(slice.slice_spills(), 1u);
  EXPECT_EQ(slice.pool_misses(), 0u);
  EXPECT_EQ(parent.pool_misses(), 0u);
}

// Acquires on one task and releases on another, the input-task -> merge-task
// shape of a task graph. Both tasks run until done, so with two workers the
// idle one steals whichever task is queued behind the other: they end up on
// different workers.
class RingEndTask : public Task {
 public:
  RingEndTask(bool producer, MsgPool* pool, SpscRing<MsgRef>* ring, uint64_t count)
      : Task(producer ? "acquirer" : "releaser"),
        producer_(producer), pool_(pool), ring_(ring), count_(count) {}

  TaskRunResult Run(TaskContext& ctx) override {
    worker.store(ctx.worker_index());
    for (uint64_t i = 0; i < count_; ++i) {
      if (producer_) {
        MsgRef msg = pool_->Acquire();
        while (!ring_->TryPush(std::move(msg))) {
          std::this_thread::yield();
        }
      } else {
        std::optional<MsgRef> msg;
        while (!(msg = ring_->TryPop())) {
          std::this_thread::yield();
        }
      }
    }
    done.store(true);
    return TaskRunResult::kIdle;
  }

  std::atomic<int> worker{-1};
  std::atomic<bool> done{false};

 private:
  const bool producer_;
  MsgPool* const pool_;
  SpscRing<MsgRef>* const ring_;
  const uint64_t count_;
};

TEST(MsgPoolTest, CrossWorkerAcquireReleaseNeverMisses) {
  constexpr uint64_t kMessages = 1'000'000;
  auto pool = std::make_unique<MsgPool>(256);
  SpscRing<MsgRef> ring(64);
  RingEndTask acquirer(/*producer=*/true, pool.get(), &ring, kMessages);
  RingEndTask releaser(/*producer=*/false, pool.get(), &ring, kMessages);
  Scheduler sched(SchedulerConfig{.num_workers = 2,
                                  .policy = SchedulingPolicy::kNonCooperative});
  sched.Start();
  sched.NotifyRunnable(&acquirer);
  sched.NotifyRunnable(&releaser);
  ASSERT_TRUE(WaitFor([&] { return acquirer.done.load() && releaser.done.load(); },
                      std::chrono::minutes(5)));
  sched.Quiesce(&acquirer);
  sched.Quiesce(&releaser);
  sched.Stop();
  EXPECT_NE(acquirer.worker.load(), releaser.worker.load());
  EXPECT_EQ(pool->pool_misses(), 0u);
  pool.reset();  // ~MsgPool checks that every message came back
}

// A channel torn down with messages still queued (a graph retired mid-
// stream) hands each one back to its pool, wherever the ring's indices sit.
TEST(MsgPoolTest, RingDestroyedWithQueuedMsgsReturnsExactlyThose) {
  MsgPool pool(256);
  for (const size_t offset : {size_t{0}, size_t{100}, size_t{126}}) {
    for (const size_t queued : {size_t{0}, size_t{1}, size_t{50}, size_t{127}}) {
      {
        SpscRing<MsgRef> ring(64);
        for (size_t i = 0; i < offset; ++i) {  // advance head/tail
          ASSERT_TRUE(ring.TryPush(pool.Acquire()));
          ASSERT_TRUE(ring.TryPop().has_value());
        }
        for (size_t i = 0; i < queued; ++i) {
          ASSERT_TRUE(ring.TryPush(pool.Acquire()));
        }
        EXPECT_EQ(pool.in_use(), queued) << "offset " << offset;
      }
      EXPECT_EQ(pool.in_use(), 0u) << "offset " << offset << " queued " << queued;
    }
  }
  EXPECT_EQ(pool.pool_misses(), 0u);
}

TEST(ChannelTest, CapacityOf64Holds127) {
  MsgPool pool(256);
  Channel ch(64);
  EXPECT_EQ(ch.capacity(), 127u);
  size_t pushed = 0;
  while (!ch.Full()) {
    ASSERT_TRUE(ch.TryPush(pool.Acquire()));
    ++pushed;
  }
  EXPECT_EQ(pushed, 127u);
  MsgRef extra = pool.Acquire();
  EXPECT_FALSE(ch.TryPush(std::move(extra)));
  EXPECT_TRUE(static_cast<bool>(extra)) << "a rejected push leaves the message with the caller";
}

TEST(MsgPoolTest, PartialHttpParseComesBackClean) {
  BufferPool buffers(4, 1024);
  MsgPool pool(1);
  {
    BufferChain rx(&buffers);
    ASSERT_TRUE(rx.Append("POST /upload HTTP/1.1\r\nHost: a\r\n"
                          "Content-Length: 10\r\n\r\nabc"));
    HttpDeserializer codec(proto::HttpParser::Mode::kRequest);
    MsgRef msg = pool.Acquire();
    ASSERT_EQ(codec.Deserialize(rx, msg.get()), ParseStatus::kNeedMore);
    ASSERT_EQ(msg->http.method, "POST");
    ASSERT_FALSE(msg->http.headers.empty());
  }
  MsgRef again = pool.Acquire();
  EXPECT_EQ(pool.pool_misses(), 0u);
  EXPECT_TRUE(again->http.method.empty());
  EXPECT_TRUE(again->http.target.empty());
  EXPECT_TRUE(again->http.headers.empty());
  EXPECT_TRUE(again->http.body.empty());
  EXPECT_EQ(again->http.content_length, 0u);
  EXPECT_EQ(again->http.wire_size, 0u);
}

// ------------------------------------------------------------- TaskContext ----

TEST(TaskContextTest, CooperativeYieldsAfterTimeslice) {
  TaskContext ctx(SchedulingPolicy::kCooperative, 1'000'000 /*1ms*/, 0);
  ctx.BeginSlice();
  EXPECT_FALSE(ctx.ShouldYield());
  std::this_thread::sleep_for(2ms);
  // The clock is only consulted every few calls (amortisation); within one
  // stride of calls the expired timeslice must be noticed.
  bool yielded = false;
  for (int i = 0; i < 16 && !yielded; ++i) {
    yielded = ctx.ShouldYield();
  }
  EXPECT_TRUE(yielded);
}

TEST(TaskContextTest, NonCooperativeNeverYields) {
  TaskContext ctx(SchedulingPolicy::kNonCooperative, 1, 0);
  ctx.BeginSlice();
  std::this_thread::sleep_for(1ms);
  ctx.ItemDone();
  EXPECT_FALSE(ctx.ShouldYield());
}

TEST(TaskContextTest, RoundRobinYieldsPerItem) {
  TaskContext ctx(SchedulingPolicy::kRoundRobin, 1'000'000'000, 0);
  ctx.BeginSlice();
  EXPECT_FALSE(ctx.ShouldYield());
  ctx.ItemDone();
  EXPECT_TRUE(ctx.ShouldYield());
}

// --------------------------------------------------------------- Scheduler ----

class CountingTask : public Task {
 public:
  explicit CountingTask(int work_items = 1)
      : Task("counting"), remaining_(work_items) {}

  TaskRunResult Run(TaskContext& ctx) override {
    runs.fetch_add(1);
    int left = remaining_.load();
    while (left > 0) {
      left = remaining_.fetch_sub(1) - 1;
      items.fetch_add(1);
      ctx.ItemDone();
      if (left > 0 && ctx.ShouldYield()) {
        return TaskRunResult::kMoreWork;
      }
    }
    return TaskRunResult::kIdle;
  }

  std::atomic<int> remaining_;
  std::atomic<int> runs{0};
  std::atomic<int> items{0};
};

TEST(SchedulerTest, RunsNotifiedTask) {
  Scheduler sched(SchedulerConfig{.num_workers = 2});
  sched.Start();
  CountingTask task(5);
  sched.NotifyRunnable(&task);
  EXPECT_TRUE(WaitFor([&] { return task.items.load() == 5; }));
  sched.Quiesce(&task);
  sched.Stop();
}

TEST(SchedulerTest, DuplicateNotifyCoalesces) {
  Scheduler sched(SchedulerConfig{.num_workers = 1});
  CountingTask task(1);
  // Before Start the task stays queued; multiple notifies must enqueue once.
  sched.NotifyRunnable(&task);
  sched.NotifyRunnable(&task);
  sched.NotifyRunnable(&task);
  sched.Start();
  EXPECT_TRUE(WaitFor([&] { return task.items.load() == 1; }));
  sched.Quiesce(&task);
  // With coalescing, the task ran at most twice (once + possible requeue).
  EXPECT_LE(task.runs.load(), 2);
  sched.Stop();
}

TEST(SchedulerTest, RoundRobinRequeuesPerItem) {
  Scheduler sched(SchedulerConfig{.num_workers = 1,
                                  .policy = SchedulingPolicy::kRoundRobin});
  sched.Start();
  CountingTask task(10);
  sched.NotifyRunnable(&task);
  EXPECT_TRUE(WaitFor([&] { return task.items.load() == 10; }));
  sched.Quiesce(&task);
  EXPECT_GE(task.runs.load(), 10) << "round robin must yield after every item";
  sched.Stop();
}

TEST(SchedulerTest, NonCooperativeRunsToCompletion) {
  Scheduler sched(SchedulerConfig{.num_workers = 1,
                                  .policy = SchedulingPolicy::kNonCooperative});
  sched.Start();
  CountingTask task(1000);
  sched.NotifyRunnable(&task);
  EXPECT_TRUE(WaitFor([&] { return task.items.load() == 1000; }));
  sched.Quiesce(&task);
  EXPECT_EQ(task.runs.load(), 1);
  sched.Stop();
}

TEST(SchedulerTest, ManyTasksAllComplete) {
  Scheduler sched(SchedulerConfig{.num_workers = 4});
  sched.Start();
  std::vector<std::unique_ptr<CountingTask>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back(std::make_unique<CountingTask>(20));
  }
  for (auto& t : tasks) {
    sched.NotifyRunnable(t.get());
  }
  EXPECT_TRUE(WaitFor([&] {
    for (auto& t : tasks) {
      if (t->items.load() != 20) {
        return false;
      }
    }
    return true;
  }));
  for (auto& t : tasks) {
    sched.Quiesce(t.get());
  }
  sched.Stop();
  EXPECT_EQ(sched.stats().tasks_run > 0, true);
}

TEST(SchedulerTest, WorkStealingBalances) {
  // One worker's home queue gets all tasks (forced by single notify burst);
  // with 4 workers the steal counter should move.
  Scheduler sched(SchedulerConfig{.num_workers = 4});
  sched.Start();
  std::vector<std::unique_ptr<CountingTask>> tasks;
  for (int i = 0; i < 200; ++i) {
    tasks.push_back(std::make_unique<CountingTask>(50));
    sched.NotifyRunnable(tasks.back().get());
  }
  EXPECT_TRUE(WaitFor([&] {
    for (auto& t : tasks) {
      if (t->items.load() != 50) {
        return false;
      }
    }
    return true;
  }, 5000ms));
  for (auto& t : tasks) {
    sched.Quiesce(t.get());
  }
  EXPECT_GT(sched.stats().steals, 0u);
  sched.Stop();
}

// Notify while running must requeue, not get lost.
class SelfCheckTask : public Task {
 public:
  SelfCheckTask() : Task("selfcheck") {}
  TaskRunResult Run(TaskContext&) override {
    runs.fetch_add(1);
    if (runs.load() == 1) {
      // Simulate a notification racing with the run.
      busy.store(true);
      while (!notified.load()) {
        std::this_thread::yield();
      }
    }
    return TaskRunResult::kIdle;
  }
  std::atomic<int> runs{0};
  std::atomic<bool> busy{false};
  std::atomic<bool> notified{false};
};

TEST(SchedulerTest, NotifyWhileRunningRequeues) {
  Scheduler sched(SchedulerConfig{.num_workers = 1});
  sched.Start();
  SelfCheckTask task;
  sched.NotifyRunnable(&task);
  ASSERT_TRUE(WaitFor([&] { return task.busy.load(); }));
  sched.NotifyRunnable(&task);  // lands in kRunning state
  task.notified.store(true);
  EXPECT_TRUE(WaitFor([&] { return task.runs.load() >= 2; }));
  sched.Quiesce(&task);
  sched.Stop();
}

// ----------------------------------------------------------------- Channel ----

TEST(ChannelTest, PushNotifiesConsumer) {
  Scheduler sched(SchedulerConfig{.num_workers = 1});
  sched.Start();
  MsgPool msgs(8);
  Channel ch(8);
  CountingTask consumer(1);
  ch.BindConsumer(&consumer, &sched);
  MsgRef m = msgs.Acquire();
  EXPECT_TRUE(ch.TryPush(std::move(m)));
  EXPECT_TRUE(WaitFor([&] { return consumer.runs.load() >= 1; }));
  sched.Quiesce(&consumer);
  sched.Stop();
  // Drain so MsgPool's destructor sees all messages returned.
  while (ch.TryPop()) {
  }
}

TEST(ChannelTest, FailedPushKeepsMessage) {
  MsgPool msgs(8);
  Channel ch(1);
  MsgRef a = msgs.Acquire();
  MsgRef b = msgs.Acquire();
  b->bytes = "keep-me";
  ASSERT_TRUE(ch.TryPush(std::move(a)));
  // Fill remaining capacity.
  while (ch.SizeApprox() < ch.capacity()) {
    MsgRef filler = msgs.Acquire();
    if (!ch.TryPush(std::move(filler))) {
      break;
    }
  }
  const bool pushed = ch.TryPush(std::move(b));
  if (!pushed) {
    ASSERT_TRUE(b) << "failed push must not consume the message";
    EXPECT_EQ(b->bytes, "keep-me");
  }
  while (ch.TryPop()) {
  }
}

TEST(ChannelTest, BackpressureWakesProducer) {
  Scheduler sched(SchedulerConfig{.num_workers = 1});
  sched.Start();
  MsgPool msgs(16);
  Channel ch(2);
  CountingTask producer(1);  // stands in for the blocked upstream
  ch.BindProducer(&producer);
  ch.BindConsumer(nullptr, &sched);

  // Fill the channel, then fail a push to register the producer as blocked.
  while (true) {
    MsgRef m = msgs.Acquire();
    if (!ch.TryPush(std::move(m))) {
      break;
    }
  }
  const int runs_before = producer.runs.load();
  MsgRef popped = ch.TryPop();  // must wake the producer
  EXPECT_TRUE(popped);
  EXPECT_TRUE(WaitFor([&] { return producer.runs.load() > runs_before; }));
  sched.Quiesce(&producer);
  sched.Stop();
  while (ch.TryPop()) {
  }
}

// ---------------------------------------------------------------- IoPoller ----

TEST(IoPollerTest, AcceptCallbackRuns) {
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());
  Scheduler sched(SchedulerConfig{.num_workers = 1});
  sched.Start();
  IoPoller poller(&sched, 1000);
  poller.Start();

  auto listener = transport.Listen(9000);
  ASSERT_TRUE(listener.ok());
  std::atomic<int> accepted{0};
  poller.AddListener(listener->get(), [&](std::unique_ptr<Connection> conn) {
    accepted.fetch_add(1);
    conn->Close();
  });

  auto c1 = transport.Connect(9000);
  auto c2 = transport.Connect(9000);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_TRUE(WaitFor([&] { return accepted.load() == 2; }));
  poller.Stop();
  sched.Stop();
}

TEST(IoPollerTest, ReadReadyNotifiesIdleTask) {
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());
  Scheduler sched(SchedulerConfig{.num_workers = 1});
  sched.Start();
  IoPoller poller(&sched, 1000);
  poller.Start();

  auto listener = transport.Listen(9001);
  auto client = transport.Connect(9001);
  auto server = (*listener)->Accept();
  ASSERT_NE(server, nullptr);

  CountingTask task(1);
  task.remaining_.store(0);  // run() completes instantly; we count runs
  poller.WatchConnection(server.get(), &task);
  const int runs_before = task.runs.load();
  ASSERT_TRUE((*client)->Write("x", 1).ok());
  EXPECT_TRUE(WaitFor([&] { return task.runs.load() > runs_before; }));
  poller.UnwatchConnection(server.get());
  poller.Stop();
  sched.Stop();
}

TEST(IoPollerTest, PeriodicTimerRemovedWhenDone) {
  Scheduler sched(SchedulerConfig{.num_workers = 1});
  IoPoller poller(&sched, 1000);
  poller.Start();
  std::atomic<int> calls{0};
  poller.wheel().AddPeriodic(1'000'000, [&] {
    calls.fetch_add(1);
    return calls.load() >= 3;  // done on third firing
  });
  EXPECT_TRUE(WaitFor([&] { return calls.load() >= 3; }));
  std::this_thread::sleep_for(10ms);
  const int after = calls.load();
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(calls.load(), after) << "periodic must not fire after completing";
  poller.Stop();
}

// ------------------------------------------------------------- ComputeTask ----

TEST(ComputeTaskTest, RoutesByHandlerDecision) {
  Scheduler sched(SchedulerConfig{.num_workers = 1});
  sched.Start();
  MsgPool msgs(32);
  Channel in(8), out0(8), out1(8);

  ComputeTask task(
      "router",
      [](Msg& msg, size_t, EmitContext& emit) {
        const size_t target = msg.bytes == "left" ? 0 : 1;
        MsgRef copy = emit.NewMsg();
        copy->kind = Msg::Kind::kBytes;
        copy->bytes = msg.bytes;
        if (!emit.Emit(target, std::move(copy))) {
          return HandleResult::kBlocked;
        }
        return HandleResult::kConsumed;
      },
      &msgs);
  task.AddInput(&in, &sched);
  task.AddOutput(&out0);
  task.AddOutput(&out1);

  MsgRef a = msgs.Acquire();
  a->bytes = "left";
  MsgRef b = msgs.Acquire();
  b->bytes = "right";
  ASSERT_TRUE(in.TryPush(std::move(a)));
  ASSERT_TRUE(in.TryPush(std::move(b)));

  EXPECT_TRUE(WaitFor([&] { return task.messages_handled() == 2; }));
  sched.Quiesce(&task);
  MsgRef r0 = out0.TryPop();
  MsgRef r1 = out1.TryPop();
  ASSERT_TRUE(r0 && r1);
  EXPECT_EQ(r0->bytes, "left");
  EXPECT_EQ(r1->bytes, "right");
  sched.Stop();
}

TEST(ComputeTaskTest, BlockedHandlerRetriesSameMessage) {
  Scheduler sched(SchedulerConfig{.num_workers = 1});
  sched.Start();
  MsgPool msgs(64);
  Channel in(16), out(1);  // tiny output to force blocking

  ComputeTask task(
      "fwd",
      [](Msg& msg, size_t, EmitContext& emit) {
        MsgRef copy = emit.NewMsg();
        copy->kind = Msg::Kind::kBytes;
        copy->bytes = msg.bytes;
        return emit.Emit(0, std::move(copy)) ? HandleResult::kConsumed
                                             : HandleResult::kBlocked;
      },
      &msgs);
  task.AddInput(&in, &sched);
  task.AddOutput(&out);
  out.BindConsumer(nullptr, &sched);  // no consumer task, but producer wakeups work

  constexpr int kCount = 10;
  for (int i = 0; i < kCount; ++i) {
    MsgRef m = msgs.Acquire();
    m->bytes = std::string("m").append(std::to_string(i));
    ASSERT_TRUE(in.TryPush(std::move(m)));
  }
  // Slowly drain the output; every message must arrive exactly once, in order.
  std::vector<std::string> got;
  while (static_cast<int>(got.size()) < kCount) {
    MsgRef m = out.TryPop();
    if (m) {
      got.push_back(m->bytes);
    } else {
      std::this_thread::sleep_for(200us);
    }
  }
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], std::string("m").append(std::to_string(i)));
  }
  sched.Quiesce(&task);
  sched.Stop();
}

// A handler that checks CanEmit and answers kBlocked never calls TryPush;
// the task must still be woken when the full output drains, with no new
// input arriving.
TEST(ComputeTaskTest, CanEmitPrecheckResumesWhenOutputDrains) {
  Scheduler sched(SchedulerConfig{.num_workers = 1});
  sched.Start();
  MsgPool msgs(16);
  Channel in(4), out(1);

  ComputeTask task(
      "precheck",
      [](Msg& msg, size_t, EmitContext& emit) {
        if (!emit.CanEmit(0)) {
          return HandleResult::kBlocked;
        }
        MsgRef copy = emit.NewMsg();
        copy->bytes = msg.bytes;
        EXPECT_TRUE(emit.Emit(0, std::move(copy)));
        return HandleResult::kConsumed;
      },
      &msgs);
  task.AddInput(&in, &sched);
  task.AddOutput(&out);
  out.BindConsumer(nullptr, &sched);

  while (!out.Full()) {
    ASSERT_TRUE(out.TryPush(msgs.Acquire()));
  }
  MsgRef m = msgs.Acquire();
  m->bytes = "parked";
  ASSERT_TRUE(in.TryPush(std::move(m)));
  // The handler ran, found the output full and the task went idle.
  ASSERT_TRUE(WaitFor([&] {
    return task.run_count.load() >= 1 &&
           task.sched_state.load() == Task::SchedState::kIdle;
  }));
  EXPECT_EQ(task.messages_handled(), 0u);

  EXPECT_TRUE(out.TryPop());  // the consumer drains one slot
  EXPECT_TRUE(WaitFor([&] { return task.messages_handled() == 1; }));
  sched.Quiesce(&task);
  sched.Stop();
  MsgRef last;
  while (MsgRef popped = out.TryPop()) {
    last = std::move(popped);
  }
  ASSERT_TRUE(last);
  EXPECT_EQ(last->bytes, "parked");
}

// A message blocked on a full output stops only its own input: the stage
// keeps answering replies on its other input while the request side is full
// (otherwise the replies back up into the backend and the two wait on each
// other), and the parked request goes out once its output drains.
TEST(ComputeTaskTest, BlockedInputLeavesOtherInputsDraining) {
  Scheduler sched(SchedulerConfig{.num_workers = 1});
  sched.Start();
  MsgPool msgs(32);
  Channel requests(4), replies(4), to_backend(1), to_client(8);

  ComputeTask task(
      "dispatch",
      [](Msg& msg, size_t input_index, EmitContext& emit) {
        MsgRef copy = emit.NewMsg();
        copy->bytes = msg.bytes;
        return emit.Emit(input_index, std::move(copy)) ? HandleResult::kConsumed
                                                       : HandleResult::kBlocked;
      },
      &msgs);
  task.AddInput(&requests, &sched);  // -> output 0, to the backend
  task.AddInput(&replies, &sched);   // -> output 1, to the client
  task.AddOutput(&to_backend);
  task.AddOutput(&to_client);
  to_backend.BindConsumer(nullptr, &sched);
  to_client.BindConsumer(nullptr, &sched);

  while (!to_backend.Full()) {
    ASSERT_TRUE(to_backend.TryPush(msgs.Acquire()));
  }
  MsgRef request = msgs.Acquire();
  request->bytes = "request";
  ASSERT_TRUE(requests.TryPush(std::move(request)));
  constexpr size_t kReplies = 3;
  for (size_t i = 0; i < kReplies; ++i) {
    MsgRef reply = msgs.Acquire();
    reply->bytes = "reply";
    ASSERT_TRUE(replies.TryPush(std::move(reply)));
  }
  EXPECT_TRUE(WaitFor([&] { return task.messages_handled() == kReplies; }));
  EXPECT_EQ(to_client.SizeApprox(), kReplies);

  EXPECT_TRUE(to_backend.TryPop());  // the backend drains one slot
  EXPECT_TRUE(WaitFor([&] { return task.messages_handled() == kReplies + 1; }));
  sched.Quiesce(&task);
  sched.Stop();
  MsgRef last;
  while (MsgRef popped = to_backend.TryPop()) {
    last = std::move(popped);
  }
  ASSERT_TRUE(last);
  EXPECT_EQ(last->bytes, "request");
}

// --------------------------------------------------------------- MergeTask ----

MsgRef MakeKvMsg(MsgPool& pool, const std::string& key, const std::string& value) {
  MsgRef m = pool.Acquire();
  m->kind = Msg::Kind::kBytes;
  m->bytes = key + "=" + value;
  return m;
}

std::pair<std::string, std::string> SplitKv(const Msg& m) {
  const size_t eq = m.bytes.find('=');
  return {m.bytes.substr(0, eq), m.bytes.substr(eq + 1)};
}

TEST(MergeTaskTest, MergesOrderedStreamsCombiningEqualKeys) {
  Scheduler sched(SchedulerConfig{.num_workers = 1});
  sched.Start();
  MsgPool msgs(64);
  Channel left(16), right(16), out(16);

  MergeTask task(
      "merge",
      [](const Msg& a, const Msg& b) {
        return SplitKv(a).first.compare(SplitKv(b).first);
      },
      [](Msg& into, const Msg& from) {
        auto [k, v1] = SplitKv(into);
        auto [k2, v2] = SplitKv(from);
        into.bytes = k + "=" + std::to_string(std::stoi(v1) + std::stoi(v2));
      });
  task.BindInputs(&left, &right, &sched);
  task.BindOutput(&out);

  // Left: a=1, c=3. Right: a=2, b=5. Expect a=3, b=5, c=3 in key order.
  ASSERT_TRUE(left.TryPush(MakeKvMsg(msgs, "a", "1")));
  ASSERT_TRUE(left.TryPush(MakeKvMsg(msgs, "c", "3")));
  ASSERT_TRUE(right.TryPush(MakeKvMsg(msgs, "a", "2")));
  ASSERT_TRUE(right.TryPush(MakeKvMsg(msgs, "b", "5")));
  MsgRef eof_l(new Msg(), nullptr);
  eof_l->kind = Msg::Kind::kEof;
  MsgRef eof_r(new Msg(), nullptr);
  eof_r->kind = Msg::Kind::kEof;
  ASSERT_TRUE(left.TryPush(std::move(eof_l)));
  ASSERT_TRUE(right.TryPush(std::move(eof_r)));

  std::vector<std::string> results;
  EXPECT_TRUE(WaitFor([&] {
    while (MsgRef m = out.TryPop()) {
      if (m->kind == Msg::Kind::kEof) {
        return true;
      }
      results.push_back(m->bytes);
    }
    return false;
  }));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0], "a=3");
  EXPECT_EQ(results[1], "b=5");
  EXPECT_EQ(results[2], "c=3");
  sched.Quiesce(&task);
  sched.Stop();
}

// A merge whose output is full when both inputs end must still forward
// exactly one EOF: the blocked EOF is delivered later, not made again each
// time the consumer pops (a sink drains after its EOF, so every pop would
// wake the merge to make another).
TEST(MergeTaskTest, ForwardsOneEofThroughAFullOutput) {
  MsgPool msgs(16);
  Channel left(4), right(4), out(1);
  MergeTask task(
      "merge",
      [](const Msg& a, const Msg& b) { return a.bytes.compare(b.bytes); },
      [](Msg&, const Msg&) {});
  task.BindInputs(&left, &right, nullptr);
  task.BindOutput(&out);
  ASSERT_TRUE(left.TryPush(MakeKvMsg(msgs, "a", "1")));
  for (Channel* in : {&left, &right}) {
    MsgRef eof(new Msg(), nullptr);
    eof->kind = Msg::Kind::kEof;
    ASSERT_TRUE(in->TryPush(std::move(eof)));
  }

  // One pop per round, so every emission meets a full channel.
  TaskContext ctx(SchedulingPolicy::kNonCooperative, 0, 0);
  std::vector<Msg::Kind> kinds;
  for (int round = 0; round < 6; ++round) {
    ctx.BeginSlice();
    (void)task.Run(ctx);
    if (MsgRef m = out.TryPop()) {
      kinds.push_back(m->kind);
    }
  }
  EXPECT_EQ(kinds, (std::vector<Msg::Kind>{Msg::Kind::kBytes, Msg::Kind::kEof}));
}

// -------------------------------------------------------------- StateStore ----

TEST(StateStoreTest, PutGetErase) {
  StateStore store;
  EXPECT_FALSE(store.Get("cache", "k").has_value());
  store.Put("cache", "k", "v1");
  EXPECT_EQ(store.Get("cache", "k").value(), "v1");
  store.Put("cache", "k", "v2");
  EXPECT_EQ(store.Get("cache", "k").value(), "v2");
  EXPECT_TRUE(store.Erase("cache", "k"));
  EXPECT_FALSE(store.Get("cache", "k").has_value());
  EXPECT_FALSE(store.Erase("cache", "k"));
}

TEST(StateStoreTest, DictsAreIndependent) {
  StateStore store;
  store.Put("a", "k", "1");
  store.Put("b", "k", "2");
  EXPECT_EQ(store.Get("a", "k").value(), "1");
  EXPECT_EQ(store.Get("b", "k").value(), "2");
}

TEST(StateStoreTest, BoundedEviction) {
  StateStore store(/*max_entries_per_dict=*/64);
  for (int i = 0; i < 10000; ++i) {
    store.Put("d", "key" + std::to_string(i), "v");
  }
  EXPECT_LE(store.Size("d"), 64u + 16u) << "per-dict size must stay bounded";
}

TEST(StateStoreTest, ConcurrentAccessIsSafe) {
  StateStore store;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 2000; ++i) {
        const std::string key = std::string("k").append(std::to_string(i % 50));
        store.Put("shared", key, std::to_string(t));
        (void)store.Get("shared", key);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_LE(store.Size("shared"), 50u);
}

// ------------------------------------------------------------ vectored fill ----

TEST(AdaptiveFillWindowTest, DoublesOnFullHalvesOnShort) {
  AdaptiveFillWindow w;
  EXPECT_EQ(w.next(), 1u);
  w.OnFullFill();
  EXPECT_EQ(w.next(), 2u);
  w.OnFullFill();
  w.OnFullFill();
  EXPECT_EQ(w.next(), 8u);
  w.OnFullFill();
  EXPECT_EQ(w.next(), 8u) << "capped at kDefaultFillWindow";
  w.OnShortFill();
  EXPECT_EQ(w.next(), 4u);
  w.OnShortFill();
  w.OnShortFill();
  w.OnShortFill();
  EXPECT_EQ(w.next(), 1u) << "floor is one buffer";

  w.ClampTo(3);  // pool pressure while at 1: no-op upward
  EXPECT_EQ(w.next(), 1u);
  w.OnFullFill();
  w.OnFullFill();
  w.ClampTo(3);  // pool could only reserve 3 of 4
  EXPECT_EQ(w.next(), 3u);

  AdaptiveFillWindow capped(2);
  capped.OnFullFill();
  capped.OnFullFill();
  EXPECT_EQ(capped.next(), 2u) << "configured cap respected";
  AdaptiveFillWindow legacy(1);
  legacy.OnFullFill();
  EXPECT_EQ(legacy.next(), 1u) << "window 1 = legacy one-buffer reads";
}

class WireFillTest : public ::testing::Test {
 protected:
  // Streams `data` into the sink ring; Null-cost stack on both ends unless a
  // capped listener injected otherwise.
  static void Pump(Connection& conn, std::string_view data) {
    size_t off = 0;
    while (off < data.size()) {
      auto wrote = conn.Write(data.data() + off, data.size() - off);
      ASSERT_TRUE(wrote.ok());
      off += *wrote;
    }
  }

  SimNetwork net_;
  SimTransport transport_{&net_, StackCostModel::Null()};
};

TEST_F(WireFillTest, FillGrowsWindowUnderBacklogAndProvesDrain) {
  auto listener = transport_.Listen(7100);
  auto client = transport_.Connect(7100);
  auto server = (*listener)->Accept();
  ASSERT_NE(server, nullptr);

  BufferPool pool(16, 1024);
  BufferChain rx(&pool);
  AdaptiveFillWindow window;
  ReadBatchCounters counters;

  // 8 KiB backlog against 1 KiB buffers: fills of 1+2+4 KiB are full (the
  // window is the limit), growing it 1 -> 2 -> 4 -> 8; the 1 KiB remainder is
  // a short fill that proves the drain and halves the window.
  Pump(**client, std::string(8192, 'x'));
  size_t bytes = 0;
  EXPECT_EQ(FillChainVectored(rx, *server, window, counters, &bytes),
            FillOutcome::kMore);
  EXPECT_EQ(bytes, 1024u);
  EXPECT_EQ(window.next(), 2u);
  rx.Consume(rx.readable());
  EXPECT_EQ(FillChainVectored(rx, *server, window, counters, &bytes),
            FillOutcome::kMore);
  EXPECT_EQ(bytes, 2048u);
  EXPECT_EQ(window.next(), 4u);
  rx.Consume(rx.readable());
  EXPECT_EQ(FillChainVectored(rx, *server, window, counters, &bytes),
            FillOutcome::kMore);
  EXPECT_EQ(bytes, 4096u);
  EXPECT_EQ(window.next(), 8u);
  rx.Consume(rx.readable());
  EXPECT_EQ(FillChainVectored(rx, *server, window, counters, &bytes),
            FillOutcome::kDrained);
  EXPECT_EQ(bytes, 1024u);  // the tail: short fill, no probe needed
  EXPECT_EQ(window.next(), 4u);
  rx.Consume(rx.readable());

  EXPECT_EQ(counters.readv_calls.load(), 4u);
  EXPECT_EQ(counters.bytes_per_readv.load(), 4096u);
  EXPECT_EQ(counters.fills_short.load(), 1u);
  // Legacy: one read per 1 KiB buffer (8) + the avoided trailing probe (1).
  EXPECT_EQ(counters.reads_legacy_equivalent.load(), 9u);
  EXPECT_LT(counters.readv_calls.load(), counters.reads_legacy_equivalent.load());

  // Empty wire: a would-block fill is not a counted readv but shrinks the
  // window and consumes NO pool buffer (the reserve is cached).
  const uint64_t acquires = pool.stats().acquire_count;
  EXPECT_EQ(FillChainVectored(rx, *server, window, counters, &bytes),
            FillOutcome::kDrained);
  EXPECT_EQ(bytes, 0u);
  EXPECT_EQ(window.next(), 2u);
  EXPECT_EQ(counters.readv_calls.load(), 4u);
  EXPECT_EQ(pool.stats().acquire_count, acquires);
}

TEST_F(WireFillTest, ShortReadInjectionKeepsWindowAdapting) {
  // max_bytes_per_op = one buffer: every fill at window 1 comes back exactly
  // full (grow), every fill at window 2 comes back short (halve) — the
  // window must oscillate between 1 and 2 and never run away, and every
  // injected short read must be counted.
  StackCostModel capped = StackCostModel::Null();
  capped.max_bytes_per_op = 1024;
  SimTransport capped_t(&net_, capped);
  auto listener = capped_t.Listen(7101);
  auto client = transport_.Connect(7101);
  auto server = (*listener)->Accept();
  ASSERT_NE(server, nullptr);

  BufferPool pool(16, 1024);
  BufferChain rx(&pool);
  AdaptiveFillWindow window;
  ReadBatchCounters counters;

  Pump(**client, std::string(8192, 'y'));
  size_t max_window = 0;
  size_t total = 0;
  while (total < 8192) {
    size_t bytes = 0;
    const FillOutcome outcome =
        FillChainVectored(rx, *server, window, counters, &bytes);
    ASSERT_NE(outcome, FillOutcome::kError);
    ASSERT_NE(outcome, FillOutcome::kNoBuffers);
    total += bytes;
    max_window = window.next() > max_window ? window.next() : max_window;
    rx.Consume(rx.readable());
  }
  EXPECT_EQ(total, 8192u);
  EXPECT_LE(max_window, 2u) << "injected short reads must hold the window down";
  EXPECT_GT(counters.fills_short.load(), 0u);
  EXPECT_EQ(counters.readv_calls.load(), 8u);  // 8192 / 1024 per injected cap
}

TEST_F(WireFillTest, InputTaskVectoredFillAmortisesReads) {
  auto listener = transport_.Listen(7102);
  auto client = transport_.Connect(7102);
  auto server = (*listener)->Accept();
  ASSERT_NE(server, nullptr);

  BufferPool buffers(32, 1024);
  MsgPool msgs(64);
  Channel out(256);
  InputTask task("in", std::move(server), std::make_unique<RawDeserializer>(),
                 &out, &msgs, &buffers);
  TaskContext ctx(SchedulingPolicy::kNonCooperative, 1'000'000'000, 0);

  Pump(**client, std::string(8192, 'z'));
  ctx.BeginSlice();
  EXPECT_EQ(task.Run(ctx), TaskRunResult::kIdle);

  // All bytes arrived downstream...
  size_t received = 0;
  while (MsgRef msg = out.TryPop()) {
    received += msg->bytes.size();
  }
  EXPECT_EQ(received, 8192u);
  // ...through amortised fills: 4 vectored reads (1+2+4+1 KiB as the window
  // grew) where the per-buffer loop needed 8 reads + a trailing probe.
  EXPECT_EQ(task.readv_calls(), 4u);
  EXPECT_EQ(task.reads_legacy_equivalent(), 9u);
  EXPECT_EQ(task.fills_short(), 1u);
  EXPECT_GE(task.bytes_per_readv(), 4096u);
  EXPECT_EQ(task.messages_in(), 4u);  // one raw chunk per fill

  // Idle wakeup on a silent wire: one would-block fill, zero pool churn.
  const uint64_t acquires = buffers.stats().acquire_count;
  ctx.BeginSlice();
  EXPECT_EQ(task.Run(ctx), TaskRunResult::kIdle);
  EXPECT_EQ(task.readv_calls(), 4u);
  EXPECT_EQ(buffers.stats().acquire_count, acquires);

  // EOF still propagates through the vectored path.
  (*client)->Close();
  ctx.BeginSlice();
  EXPECT_EQ(task.Run(ctx), TaskRunResult::kIdle);
  EXPECT_TRUE(task.closed());
  MsgRef eof = out.TryPop();
  ASSERT_TRUE(eof);
  EXPECT_EQ(eof->kind, Msg::Kind::kEof);
}

// Raw chunks, but parsing one also closes the wire — standing in for a sink
// that shares the connection and closed it (a write to a departed client
// failed) while this input task was mid-run.
class ClosingRawDeserializer : public RawDeserializer {
 public:
  explicit ClosingRawDeserializer(Connection** wire) : wire_(wire) {}
  ParseStatus Deserialize(BufferChain& in, Msg* out) override {
    const ParseStatus s = RawDeserializer::Deserialize(in, out);
    if (s == ParseStatus::kDone) {
      (*wire_)->Close();
    }
    return s;
  }

 private:
  Connection** wire_;
};

TEST_F(WireFillTest, WireClosedUnderInputTaskStillClosesIt) {
  auto listener = transport_.Listen(7103);
  auto client = transport_.Connect(7103);
  auto server = (*listener)->Accept();
  ASSERT_NE(server, nullptr);
  Connection* wire = server.get();
  BufferPool buffers(8, 1024);
  MsgPool msgs(8);
  Channel out(16);
  InputTask task("in", std::move(server), std::make_unique<ClosingRawDeserializer>(&wire),
                 &out, &msgs, &buffers);
  TaskContext ctx(SchedulingPolicy::kNonCooperative, 1'000'000'000, 0);

  // The client stays open: no further edge will ever wake this task, so
  // the run that saw its own wire close must close the task.
  Pump(**client, "request");
  ctx.BeginSlice();
  EXPECT_EQ(task.Run(ctx), TaskRunResult::kIdle);
  EXPECT_TRUE(task.closed());
  MsgRef msg = out.TryPop();
  ASSERT_TRUE(msg);
  EXPECT_EQ(msg->bytes, "request");
  MsgRef eof = out.TryPop();
  ASSERT_TRUE(eof);
  EXPECT_EQ(eof->kind, Msg::Kind::kEof);
}

// ------------------------------------------------- Platform e2e (echo svc) ----

// Minimal service: per-connection graph In(raw) -> Out(raw) echoing bytes.
class EchoService : public ServiceProgram {
 public:
  const char* name() const override { return "echo"; }

  void OnConnection(std::unique_ptr<Connection> conn, PlatformEnv& env) override {
    auto graph = std::make_unique<TaskGraph>("echo");
    Channel* ch = graph->AddChannel(64);
    Connection* raw = conn.get();
    auto* in = graph->AddTask<InputTask>("in", std::move(conn),
                                         std::make_unique<RawDeserializer>(), ch,
                                         env.msgs, env.buffers);
    // Echo writes back on the same connection: wrap it in a non-owning proxy.
    class NonOwning : public Connection {
     public:
      explicit NonOwning(Connection* c) : c_(c) {}
      Result<size_t> Read(void* b, size_t n) override { return c_->Read(b, n); }
      Result<size_t> Write(const void* b, size_t n) override { return c_->Write(b, n); }
      void Close() override { c_->Close(); }
      bool IsOpen() const override { return c_->IsOpen(); }
      bool ReadReady() const override { return c_->ReadReady(); }
      uint64_t id() const override { return c_->id(); }

     private:
      Connection* c_;
    };
    auto* out = graph->AddTask<OutputTask>("out", std::make_unique<NonOwning>(raw),
                                           std::make_unique<RawSerializer>(), ch,
                                           env.buffers);
    ch->BindConsumer(out, env.scheduler);
    env.poller->WatchConnection(raw, in);
    env.scheduler->NotifyRunnable(in);

    std::lock_guard<std::mutex> lock(mutex_);
    graphs_.push_back(std::move(graph));
    shards_seen_.push_back(env.io_shard);
  }

  // How many connections each IO shard accepted (index = shard).
  std::vector<size_t> ShardCounts(size_t shards) {
    std::vector<size_t> counts(shards, 0);
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t s : shards_seen_) {
      if (s < shards) {
        ++counts[s];
      }
    }
    return counts;
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<TaskGraph>> graphs_;
  std::vector<size_t> shards_seen_;
};

TEST(PlatformTest, EchoServiceEndToEnd) {
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());
  PlatformConfig config;
  config.scheduler.num_workers = 2;
  Platform platform(config, &transport);
  EchoService echo;
  ASSERT_TRUE(platform.RegisterProgram(9100, &echo).ok());
  platform.Start();

  auto client = transport.Connect(9100);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Write("hello flick", 11).ok());

  std::string response;
  char buf[64];
  ASSERT_TRUE(WaitFor([&] {
    auto got = (*client)->Read(buf, sizeof(buf));
    if (got.ok() && *got > 0) {
      response.append(buf, *got);
    }
    return response.size() >= 11;
  }));
  EXPECT_EQ(response, "hello flick");
  platform.Stop();
}

TEST(PlatformTest, TwoProgramsShareThePlatform) {
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());
  PlatformConfig config;
  config.scheduler.num_workers = 2;
  Platform platform(config, &transport);
  EchoService echo_a, echo_b;
  ASSERT_TRUE(platform.RegisterProgram(9200, &echo_a).ok());
  ASSERT_TRUE(platform.RegisterProgram(9201, &echo_b).ok());
  platform.Start();

  auto ca = transport.Connect(9200);
  auto cb = transport.Connect(9201);
  ASSERT_TRUE(ca.ok() && cb.ok());
  ASSERT_TRUE((*ca)->Write("aaa", 3).ok());
  ASSERT_TRUE((*cb)->Write("bbb", 3).ok());

  auto read_all = [&](Connection* c, size_t want) {
    std::string out;
    char buf[16];
    WaitFor([&] {
      auto got = c->Read(buf, sizeof(buf));
      if (got.ok() && *got > 0) {
        out.append(buf, *got);
      }
      return out.size() >= want;
    });
    return out;
  };
  EXPECT_EQ(read_all(ca->get(), 3), "aaa");
  EXPECT_EQ(read_all(cb->get(), 3), "bbb");
  platform.Stop();
}

// Sharded IO plane: every shard must accept its share of the connections
// (sim accept groups place round-robin) and serve them end to end — each
// connection's graph is watched and driven entirely by its accepting shard.
TEST(PlatformTest, ShardedAcceptDistributesAndServesEndToEnd) {
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());
  PlatformConfig config;
  config.scheduler.num_workers = 2;
  config.io_shards = 2;
  Platform platform(config, &transport);
  EXPECT_EQ(platform.io_shards(), 2u);
  EchoService echo;
  ASSERT_TRUE(platform.RegisterProgram(9400, &echo).ok());
  platform.Start();

  constexpr int kClients = 6;
  std::vector<std::unique_ptr<Connection>> clients;
  for (int i = 0; i < kClients; ++i) {
    auto c = transport.Connect(9400);
    ASSERT_TRUE(c.ok()) << i;
    clients.push_back(std::move(c).value());
  }
  for (int i = 0; i < kClients; ++i) {
    const std::string payload = "msg-" + std::to_string(i);
    ASSERT_TRUE(clients[i]->Write(payload.data(), payload.size()).ok());
    std::string response;
    char buf[64];
    ASSERT_TRUE(WaitFor([&] {
      auto got = clients[i]->Read(buf, sizeof(buf));
      if (got.ok() && *got > 0) {
        response.append(buf, *got);
      }
      return response.size() >= payload.size();
    })) << i;
    EXPECT_EQ(response, payload);
  }

  const std::vector<size_t> counts = echo.ShardCounts(2);
  EXPECT_EQ(counts[0], 3u) << "round-robin accept placement";
  EXPECT_EQ(counts[1], 3u);
  platform.Stop();
}

// Per-shard envs view the same shared components but their own poller.
TEST(PlatformTest, ShardEnvsShareStateButOwnPoller) {
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());
  PlatformConfig config;
  config.io_shards = 3;
  Platform platform(config, &transport);
  ASSERT_EQ(platform.io_shards(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    PlatformEnv& env = platform.env(s);
    EXPECT_EQ(env.io_shard, s);
    EXPECT_EQ(env.io_shard_count(), 3u);
    EXPECT_EQ(env.poller, &platform.poller(s));
    EXPECT_EQ(env.shard_poller(s), env.poller);
    EXPECT_EQ(env.scheduler, &platform.scheduler());
    EXPECT_EQ(env.state, &platform.state());
  }
  // Distinct pollers per shard.
  EXPECT_NE(&platform.poller(0), &platform.poller(1));
  EXPECT_NE(&platform.poller(1), &platform.poller(2));
}

// Share-nothing memory plane: each shard env hands out its own pool slice; a
// slice exhausted locally spills into the global pool (counted), releases
// route back to the pool that served the acquire, and a slice's burst never
// touches a sibling slice's free list.
TEST(PlatformTest, ShardPoolSlicesSpillIntoGlobalAndRouteReleases) {
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());
  PlatformConfig config;
  config.io_shards = 2;
  config.io_buffer_count = 4;  // -> 2 buffers per slice
  config.io_buffer_size = 256;
  config.msg_pool_size = 2;  // -> 1 msg per slice
  Platform platform(config, &transport);

  BufferPool* slice0 = platform.env(0).buffers;
  BufferPool* slice1 = platform.env(1).buffers;
  EXPECT_NE(slice0, slice1);
  EXPECT_NE(slice0, &platform.buffers());
  EXPECT_EQ(slice0->spill(), &platform.buffers());
  EXPECT_EQ(platform.env(0).shard_buffers(1), slice1);  // cross-shard fetch

  // Exhaust slice 0: the third acquire is served by the global spill pool.
  BufferRef a = slice0->Acquire();
  BufferRef b = slice0->Acquire();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(slice0->stats().slice_spills, 0u);
  BufferRef c = slice0->Acquire();
  ASSERT_TRUE(c);
  EXPECT_EQ(slice0->stats().slice_spills, 1u);
  EXPECT_EQ(platform.buffers().stats().in_use, 1u);
  EXPECT_EQ(platform.pool_slice_spills(), 1u);
  EXPECT_EQ(slice1->stats().in_use, 0u);  // sibling slice untouched

  // Releases route by owner: the spilled buffer returns to the GLOBAL pool,
  // never the slice's free list.
  c.Release();
  EXPECT_EQ(platform.buffers().stats().in_use, 0u);
  EXPECT_EQ(slice0->stats().in_use, 2u);
  a.Release();
  b.Release();
  EXPECT_EQ(slice0->stats().in_use, 0u);

  // Msg plane: slice of 1, global of 2. The second/third acquires spill to
  // the global pool; the fourth finds the global dry too and falls back to a
  // counted heap allocation (on the global pool — slices never heap).
  MsgPool* msgs0 = platform.env(0).msgs;
  EXPECT_EQ(msgs0->spill(), &platform.msgs());
  MsgRef m1 = msgs0->Acquire();
  MsgRef m2 = msgs0->Acquire();
  MsgRef m3 = msgs0->Acquire();
  MsgRef m4 = msgs0->Acquire();
  ASSERT_TRUE(m1 && m2 && m3 && m4);
  EXPECT_EQ(msgs0->slice_spills(), 3u);
  EXPECT_EQ(msgs0->pool_misses(), 0u);
  EXPECT_EQ(platform.msg_pool_misses(), 1u);
  EXPECT_EQ(platform.pool_slice_spills(), 4u);  // 1 buffer + 3 msg
}

// io_shards == 1 keeps the single-pool shape: the env's pools ARE the global
// pools, no slices are built, and the spill counter reads zero.
TEST(PlatformTest, UnshardedPlatformBuildsNoSlices) {
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());
  PlatformConfig config;
  config.io_shards = 1;
  Platform platform(config, &transport);
  EXPECT_EQ(platform.env(0).buffers, &platform.buffers());
  EXPECT_EQ(platform.env(0).msgs, &platform.msgs());
  EXPECT_EQ(platform.env(0).shard_buffer_pools, nullptr);
  EXPECT_EQ(platform.env(0).shard_msg_pools, nullptr);
  EXPECT_EQ(platform.buffers().spill(), nullptr);
  EXPECT_EQ(platform.pool_slice_spills(), 0u);
}

TEST(PlatformTest, RegisterOnBusyPortFails) {
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());
  Platform platform(PlatformConfig{}, &transport);
  EchoService a, b;
  EXPECT_TRUE(platform.RegisterProgram(9300, &a).ok());
  EXPECT_FALSE(platform.RegisterProgram(9300, &b).ok());
}

// --------------------------------------------- Connection lifetime plane ----

// Platform + static-http with aggressive lifetime windows: the timer wheel
// must expire idle keep-alive clients, bound slowloris half-requests, and the
// admission cap must shed accepts past it — all counted.
TEST(ConnLifetimeTest, IdleKeepAliveConnectionIsClosedAndCounted) {
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());
  PlatformConfig config;
  config.scheduler.num_workers = 2;
  config.idle_timeout_ns = 30'000'000;  // 30ms ≈ 28 wheel ticks
  Platform platform(config, &transport);
  services::StaticHttpService http("ok");
  ASSERT_TRUE(platform.RegisterProgram(9500, &http).ok());
  platform.Start();

  auto client = transport.Connect(9500);
  ASSERT_TRUE(client.ok());
  const std::string req = "GET / HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_TRUE((*client)->Write(req.data(), req.size()).ok());
  std::string response;
  char buf[256];
  ASSERT_TRUE(WaitFor([&] {
    auto got = (*client)->Read(buf, sizeof(buf));
    if (got.ok() && *got > 0) {
      response.append(buf, *got);
    }
    return response.find("\r\n\r\nok") != std::string::npos;
  }));
  EXPECT_EQ(http.registry().stats().idle_closed, 0u) << "served, not yet idle";

  // Keep-alive client goes quiet: the idle deadline closes it server-side,
  // which the client observes as peer-closed on its next read.
  ASSERT_TRUE(WaitFor([&] {
    auto got = (*client)->Read(buf, sizeof(buf));
    return !got.ok();
  }));
  ASSERT_TRUE(WaitFor([&] { return http.registry().stats().idle_closed >= 1; }));
  EXPECT_EQ(http.registry().stats().deadline_closed, 0u);
  platform.Stop();
}

TEST(ConnLifetimeTest, SlowlorisHalfRequestLineHitsHeaderDeadline) {
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());
  PlatformConfig config;
  config.scheduler.num_workers = 2;
  config.header_deadline_ns = 30'000'000;
  Platform platform(config, &transport);
  services::StaticHttpService http("ok");
  ASSERT_TRUE(platform.RegisterProgram(9501, &http).ok());
  platform.Start();

  // Half a request line, then silence: never parses to a message, so only
  // the progress (header) deadline can reap it.
  auto client = transport.Connect(9501);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Write("GET /i", 6).ok());
  char buf[64];
  ASSERT_TRUE(WaitFor([&] {
    auto got = (*client)->Read(buf, sizeof(buf));
    return !got.ok();
  }));
  ASSERT_TRUE(
      WaitFor([&] { return http.registry().stats().deadline_closed >= 1; }));
  EXPECT_EQ(http.registry().stats().idle_closed, 0u);
  platform.Stop();
}

TEST(ConnLifetimeTest, SlowTrickleStillHitsProgressDeadline) {
  // Classic slowloris: one byte per ~10ms keeps the wire non-idle forever.
  // The progress deadline must NOT slide on wakeups without fresh bytes, but
  // byte arrivals do re-arm it — so a 30ms window with 10ms drips stays open
  // until the drip stops.
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());
  PlatformConfig config;
  config.scheduler.num_workers = 2;
  config.header_deadline_ns = 60'000'000;
  Platform platform(config, &transport);
  services::StaticHttpService http("ok");
  ASSERT_TRUE(platform.RegisterProgram(9502, &http).ok());
  platform.Start();

  auto client = transport.Connect(9502);
  ASSERT_TRUE(client.ok());
  const std::string_view partial = "GET /slow HTTP/1.1\r\nHost:";
  for (char c : partial) {
    if (!(*client)->Write(&c, 1).ok()) {
      break;  // already reaped: the drip outlived the deadline budget
    }
    std::this_thread::sleep_for(5ms);
  }
  char buf[64];
  ASSERT_TRUE(WaitFor([&] {
    auto got = (*client)->Read(buf, sizeof(buf));
    return !got.ok();
  }));
  ASSERT_TRUE(
      WaitFor([&] { return http.registry().stats().deadline_closed >= 1; }));
  platform.Stop();
}

TEST(ConnLifetimeTest, AdmissionCapShedsExcessConnections) {
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());
  PlatformConfig config;
  config.scheduler.num_workers = 2;
  config.io_shards = 1;
  config.max_conns_per_shard = 2;
  Platform platform(config, &transport);
  services::StaticHttpService http("ok");
  ASSERT_TRUE(platform.RegisterProgram(9503, &http).ok());
  platform.Start();

  auto c1 = transport.Connect(9503);
  auto c2 = transport.Connect(9503);
  ASSERT_TRUE(c1.ok() && c2.ok());
  // Prove both admitted conns are live before pushing past the cap.
  const std::string req = "GET / HTTP/1.1\r\nHost: t\r\n\r\n";
  for (Connection* c : {c1->get(), c2->get()}) {
    ASSERT_TRUE(c->Write(req.data(), req.size()).ok());
    std::string response;
    char buf[256];
    ASSERT_TRUE(WaitFor([&] {
      auto got = c->Read(buf, sizeof(buf));
      if (got.ok() && *got > 0) {
        response.append(buf, *got);
      }
      return response.find("\r\n\r\nok") != std::string::npos;
    }));
  }

  // Third connection: accepted then shed (closed before any service graph).
  auto c3 = transport.Connect(9503);
  ASSERT_TRUE(c3.ok());
  char buf[64];
  ASSERT_TRUE(WaitFor([&] {
    auto got = (*c3)->Read(buf, sizeof(buf));
    return !got.ok();
  }));
  EXPECT_EQ(platform.poller(0).admission().shed(), 1u);
  EXPECT_EQ(platform.poller(0).admission().live(), 2u);
  EXPECT_EQ(http.registry().stats().admissions_shed, 1u);
  EXPECT_EQ(http.live_graphs(), 2u) << "shed conn never reached the service";
  platform.Stop();
}

}  // namespace
}  // namespace flick::runtime
