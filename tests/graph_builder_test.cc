// GraphBuilder unit/integration tests: declarative graphs over the sim
// fabric, launch stats, failure-path leg cleanup, tee duplication, folded
// foldt trees against a reference, and the staged GraphRegistry retirement
// sequence (unwatch sweep -> drain sweep -> destruction) for both
// hand-wired and builder-constructed graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "buffer/buffer_chain.h"
#include "buffer/buffer_pool.h"
#include "grammar/parser.h"
#include "net/sim_transport.h"
#include "proto/hadoop.h"
#include "runtime/io_tasks.h"
#include "runtime/platform.h"
#include "services/graph_builder.h"
#include "services/memcached_proxy.h"
#include "services/service_util.h"
#include "platform_stop_guard.h"

namespace flick {
namespace {

using namespace std::chrono_literals;

template <typename Cond>
bool WaitFor(Cond cond, std::chrono::milliseconds timeout = 3000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) {
      return true;
    }
    std::this_thread::sleep_for(200us);
  }
  return cond();
}

// Drains whatever is readable into `out`; true once `expected` bytes arrived.
bool ReadInto(Connection& conn, std::string* out, size_t expected) {
  char buf[4096];
  auto got = conn.Read(buf, sizeof(buf));
  if (got.ok() && *got > 0) {
    out->append(buf, *got);
  }
  return out->size() >= expected;
}

// Raw echo: client-in -> echo stage -> client-out, all on one connection.
class BuilderEchoService : public runtime::ServiceProgram {
 public:
  const char* name() const override { return "builder-echo"; }

  void OnConnection(std::unique_ptr<Connection> conn,
                    runtime::PlatformEnv& env) override {
    services::GraphBuilder b("echo", env);
    auto client = b.Adopt(std::move(conn));
    auto in = b.Source("in", client, std::make_unique<runtime::RawDeserializer>());
    auto echo = b.Stage("echo",
                        [](runtime::Msg& msg, size_t, runtime::EmitContext& emit) {
                          runtime::MsgRef out = emit.NewMsg();
                          out->kind = msg.kind;
                          out->bytes = msg.bytes;
                          return emit.Emit(0, std::move(out))
                                     ? runtime::HandleResult::kConsumed
                                     : runtime::HandleResult::kBlocked;
                        })
                    .From(in);
    b.Sink("out", client, std::make_unique<runtime::RawSerializer>()).From(echo);
    last_status = b.Launch(registry);
    last_stats = b.stats();
    // Launch activates IO before returning, so data can reach the test
    // thread before the assignments above: publish them explicitly.
    launched.store(true, std::memory_order_release);
  }

  services::GraphRegistry registry;
  Status last_status;
  services::GraphLaunchStats last_stats;
  std::atomic<bool> launched{false};
};

// Mirrors the client stream to two dialled backends through a Tee.
class TeeMirrorService : public runtime::ServiceProgram {
 public:
  TeeMirrorService(uint16_t mirror_a, uint16_t mirror_b)
      : mirror_a_(mirror_a), mirror_b_(mirror_b) {}

  const char* name() const override { return "tee-mirror"; }

  void OnConnection(std::unique_ptr<Connection> conn,
                    runtime::PlatformEnv& env) override {
    services::GraphBuilder b("tee-mirror", env);
    auto client = b.Adopt(std::move(conn));
    auto a = b.Connect(mirror_a_);
    auto bb = b.Connect(mirror_b_);
    auto in = b.Source("in", client, std::make_unique<runtime::RawDeserializer>());
    auto tee = b.Tee("tee").From(in);
    b.Sink("mirror-a", a, std::make_unique<runtime::RawSerializer>()).From(tee);
    b.Sink("mirror-b", bb, std::make_unique<runtime::RawSerializer>()).From(tee);
    last_status = b.Launch(registry);
    last_stats = b.stats();
    launched.store(true, std::memory_order_release);
  }

  services::GraphRegistry registry;
  Status last_status;
  services::GraphLaunchStats last_stats;
  std::atomic<bool> launched{false};

 private:
  uint16_t mirror_a_;
  uint16_t mirror_b_;
};

// Old-style hand wiring, kept here (and only here) to pin down the staged
// retirement contract independently of the builder.
class ManualEchoService : public runtime::ServiceProgram {
 public:
  const char* name() const override { return "manual-echo"; }

  void OnConnection(std::unique_ptr<Connection> conn,
                    runtime::PlatformEnv& env) override {
    auto graph = std::make_unique<runtime::TaskGraph>("manual-echo");
    runtime::Channel* ch = graph->AddChannel(64);
    Connection* raw = conn.get();
    auto* in = graph->AddTask<runtime::InputTask>(
        "in", std::move(conn), std::make_unique<runtime::RawDeserializer>(), ch,
        env.msgs, env.buffers);
    auto* out = graph->AddTask<runtime::OutputTask>(
        "out", std::make_unique<services::SharedConn>(raw),
        std::make_unique<runtime::RawSerializer>(), ch, env.buffers);
    ch->BindConsumer(out, env.scheduler);
    env.ActivateIo({{raw, in}});
    registry.Adopt(std::move(graph), {raw}, env);
  }

  services::GraphRegistry registry;
};

// A wordcount foldt tree: `streams` mapper connections, each a Source, fold
// through MergeTree into a dialled reducer leg. Every channel holds one
// message, so held and pushed-back records keep meeting full channels.
class FoldTreeService : public runtime::ServiceProgram {
 public:
  FoldTreeService(size_t streams, uint16_t reducer_port)
      : streams_(streams), reducer_port_(reducer_port) {}

  const char* name() const override { return "fold-tree"; }

  void OnConnection(std::unique_ptr<Connection> conn,
                    runtime::PlatformEnv& env) override {
    std::vector<std::unique_ptr<Connection>> mappers;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_.push_back(std::move(conn));
      if (pending_.size() < streams_) {
        return;
      }
      mappers.swap(pending_);
    }
    const grammar::Unit* unit = &proto::HadoopKvUnit();
    services::GraphBuilder b("fold-tree", env);
    b.DefaultCapacity(1);
    std::vector<services::NodeRef> leaves;
    for (size_t i = 0; i < mappers.size(); ++i) {
      leaves.push_back(b.Source("in-" + std::to_string(i), b.Adopt(std::move(mappers[i])),
                                std::make_unique<runtime::GrammarDeserializer>(unit)));
    }
    auto root = b.MergeTree("fold", std::move(leaves), OrderByKey, AddCounts,
                            /*capacity=*/1);
    b.Sink("reducer-out", b.Connect(reducer_port_),
           std::make_unique<runtime::GrammarSerializer>(unit))
        .From(root);
    last_status = b.Launch(registry);
    last_stats = b.stats();
    launched.store(true, std::memory_order_release);
  }

  services::GraphRegistry registry;
  Status last_status;
  services::GraphLaunchStats last_stats;
  std::atomic<bool> launched{false};

 private:
  static int OrderByKey(const runtime::Msg& a, const runtime::Msg& b) {
    return a.gmsg.GetBytes(proto::HadoopKv::kKey)
        .compare(b.gmsg.GetBytes(proto::HadoopKv::kKey));
  }
  static void AddCounts(runtime::Msg& into, const runtime::Msg& from) {
    const proto::CountText sum =
        proto::CombineCounts(into.gmsg.GetBytes(proto::HadoopKv::kValue),
                             from.gmsg.GetBytes(proto::HadoopKv::kValue));
    into.gmsg.SetBytes(proto::HadoopKv::kValue, sum.view());
  }

  const size_t streams_;
  const uint16_t reducer_port_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<Connection>> pending_;
};

using KvRecord = std::pair<std::string, uint64_t>;  // key, count

// Sorted: ascending distinct keys, each a run of 1..6 records. Unsorted:
// keys drawn from a small vocabulary, so some neighbours repeat by chance.
std::vector<KvRecord> MakeKvStream(Rng& rng, bool sorted) {
  std::vector<KvRecord> records;
  if (sorted) {
    std::vector<std::string> keys;
    for (int id = 0; id < 120; ++id) {
      if (rng.NextBelow(2) == 0) {
        keys.push_back("w" + std::to_string(id));
      }
    }
    std::sort(keys.begin(), keys.end());
    for (const std::string& key : keys) {
      for (uint64_t run = 1 + rng.NextBelow(6); run > 0; --run) {
        records.emplace_back(key, 1 + rng.NextBelow(9));
      }
    }
  } else {
    for (int i = 0; i < 300; ++i) {
      records.emplace_back("w" + std::to_string(rng.NextBelow(12)), 1 + rng.NextBelow(9));
    }
  }
  return records;
}

uint64_t CountRuns(const std::vector<KvRecord>& records) {
  uint64_t runs = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (i == 0 || records[i].first != records[i - 1].first) {
      ++runs;
    }
  }
  return runs;
}

class GraphBuilderTest : public ::testing::Test {
 protected:
  GraphBuilderTest() : transport_(&net_, StackCostModel::Null()) {
    config_.scheduler.num_workers = 2;
  }

  runtime::Platform& MakePlatform() {
    platform_ = std::make_unique<runtime::Platform>(config_, &transport_);
    return *platform_;
  }

  SimNetwork net_;
  SimTransport transport_;
  runtime::PlatformConfig config_;
  std::unique_ptr<runtime::Platform> platform_;
};

TEST_F(GraphBuilderTest, EchoGraphServesAndReportsStats) {
  auto& platform = MakePlatform();
  BuilderEchoService service;
  ASSERT_TRUE(platform.RegisterProgram(7000, &service).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  auto conn = transport_.Connect(7000);
  ASSERT_TRUE(conn.ok());
  const std::string payload = "ping";
  ASSERT_TRUE((*conn)->Write(payload.data(), payload.size()).ok());
  std::string echoed;
  ASSERT_TRUE(WaitFor([&] { return ReadInto(**conn, &echoed, payload.size()); }));
  EXPECT_EQ(echoed, payload);

  ASSERT_TRUE(WaitFor(
      [&] { return service.launched.load(std::memory_order_acquire); }));
  EXPECT_TRUE(service.last_status.ok());
  EXPECT_EQ(service.last_stats.sources, 1u);
  EXPECT_EQ(service.last_stats.stages, 1u);
  EXPECT_EQ(service.last_stats.sinks, 1u);
  EXPECT_EQ(service.last_stats.tasks, 3u);
  EXPECT_EQ(service.last_stats.channels, 2u);
  EXPECT_EQ(service.last_stats.connections, 1u);
  EXPECT_EQ(service.last_stats.watched, 1u);

  (*conn)->Close();
  platform.Stop();
}

TEST_F(GraphBuilderTest, BuilderGraphRetiresThroughStagedSweeps) {
  auto& platform = MakePlatform();
  BuilderEchoService service;
  ASSERT_TRUE(platform.RegisterProgram(7000, &service).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  auto conn = transport_.Connect(7000);
  ASSERT_TRUE(conn.ok());
  const std::string payload = "retire-me";
  ASSERT_TRUE((*conn)->Write(payload.data(), payload.size()).ok());
  std::string echoed;
  ASSERT_TRUE(WaitFor([&] { return ReadInto(**conn, &echoed, payload.size()); }));
  ASSERT_EQ(service.registry.stats().graphs_adopted, 1u);

  (*conn)->Close();
  // Stage 1: connections unwatched once all IO tasks closed; stage 2: graph
  // destroyed once every task drained to idle. Both must complete.
  ASSERT_TRUE(WaitFor([&] { return service.registry.stats().graphs_retired == 1; }));
  const services::RegistryStats stats = service.registry.stats();
  EXPECT_EQ(stats.graphs_adopted, 1u);
  EXPECT_EQ(stats.graphs_unwatched, 1u);
  EXPECT_EQ(stats.graphs_retired, 1u);
  EXPECT_EQ(stats.tasks_adopted, 3u);
  EXPECT_EQ(stats.channels_adopted, 2u);
  EXPECT_EQ(service.registry.live_graphs(), 0u);
  platform.Stop();
}

// Retirement starts from the close itself: the last IO task's close hands
// the graph to the poller, which retires it within a few sweeps — not after
// a periodic scan of live graphs finds it (25 ms ≈ 100+ idle sweeps). The
// sweep count includes the workers' time to see the close, so a starved
// host can stretch one round; the best round must still show the bound.
TEST_F(GraphBuilderTest, ClosedGraphRetiresWithinAFewSweeps) {
  auto& platform = MakePlatform();
  BuilderEchoService service;
  ASSERT_TRUE(platform.RegisterProgram(7000, &service).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  uint64_t best = UINT64_MAX;
  for (uint64_t round = 1; round <= 5; ++round) {
    auto conn = transport_.Connect(7000);
    ASSERT_TRUE(conn.ok());
    const std::string payload = "close-me";
    ASSERT_TRUE((*conn)->Write(payload.data(), payload.size()).ok());
    std::string echoed;
    ASSERT_TRUE(WaitFor([&] { return ReadInto(**conn, &echoed, payload.size()); }));

    const uint64_t sweeps_at_close = platform.poller().sweeps();
    (*conn)->Close();  // the input task reads EOF; the sink closes on it
    ASSERT_TRUE(WaitFor([&] { return service.registry.stats().graphs_retired == round; }));
    best = std::min(best, platform.poller().sweeps() - sweeps_at_close);
    EXPECT_EQ(service.registry.live_graphs(), 0u);
  }
  EXPECT_LE(best, 8u);
  platform.Stop();
}

TEST_F(GraphBuilderTest, ManualGraphRetiresThroughSameStages) {
  auto& platform = MakePlatform();
  ManualEchoService service;
  ASSERT_TRUE(platform.RegisterProgram(7000, &service).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  auto conn = transport_.Connect(7000);
  ASSERT_TRUE(conn.ok());
  const std::string payload = "manual";
  ASSERT_TRUE((*conn)->Write(payload.data(), payload.size()).ok());
  std::string echoed;
  ASSERT_TRUE(WaitFor([&] { return ReadInto(**conn, &echoed, payload.size()); }));
  EXPECT_EQ(echoed, payload);

  (*conn)->Close();
  ASSERT_TRUE(WaitFor([&] { return service.registry.stats().graphs_retired == 1; }));
  const services::RegistryStats stats = service.registry.stats();
  EXPECT_EQ(stats.graphs_adopted, 1u);
  EXPECT_EQ(stats.graphs_unwatched, 1u);
  EXPECT_EQ(stats.graphs_retired, 1u);
  EXPECT_EQ(service.registry.live_graphs(), 0u);
  platform.Stop();
}

TEST_F(GraphBuilderTest, TeeDuplicatesStreamToAllSinks) {
  auto mirror_a = transport_.Listen(7101);
  auto mirror_b = transport_.Listen(7102);
  ASSERT_TRUE(mirror_a.ok() && mirror_b.ok());

  auto& platform = MakePlatform();
  TeeMirrorService service(7101, 7102);
  ASSERT_TRUE(platform.RegisterProgram(7100, &service).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  auto conn = transport_.Connect(7100);
  ASSERT_TRUE(conn.ok());
  std::unique_ptr<Connection> peer_a, peer_b;
  ASSERT_TRUE(WaitFor([&] {
    if (peer_a == nullptr) peer_a = (*mirror_a)->Accept();
    if (peer_b == nullptr) peer_b = (*mirror_b)->Accept();
    return peer_a != nullptr && peer_b != nullptr;
  }));

  const std::string payload = "duplicate-this";
  ASSERT_TRUE((*conn)->Write(payload.data(), payload.size()).ok());
  std::string got_a, got_b;
  ASSERT_TRUE(WaitFor([&] { return ReadInto(*peer_a, &got_a, payload.size()); }));
  ASSERT_TRUE(WaitFor([&] { return ReadInto(*peer_b, &got_b, payload.size()); }));
  EXPECT_EQ(got_a, payload);
  EXPECT_EQ(got_b, payload);

  ASSERT_TRUE(WaitFor(
      [&] { return service.launched.load(std::memory_order_acquire); }));
  EXPECT_TRUE(service.last_status.ok());
  EXPECT_EQ(service.last_stats.tees, 1u);
  EXPECT_EQ(service.last_stats.sinks, 2u);
  EXPECT_EQ(service.last_stats.connections, 3u);
  EXPECT_EQ(service.last_stats.watched, 1u);  // only the client leg is read

  // Client close propagates EOF through the tee to both mirror legs and the
  // graph retires through the staged sweeps.
  (*conn)->Close();
  ASSERT_TRUE(WaitFor([&] { return service.registry.stats().graphs_retired == 1; }));
  EXPECT_EQ(service.registry.live_graphs(), 0u);
  platform.Stop();
}

TEST_F(GraphBuilderTest, FailedConnectClosesEstablishedLegs) {
  auto backend = transport_.Listen(7201);
  ASSERT_TRUE(backend.ok());
  auto& platform = MakePlatform();
  platform.Start();
  ScopedPlatformStop stop_guard(platform);
  runtime::PlatformEnv& env = platform.env();

  // A client leg (accepted side of a dialled pair).
  auto listener = transport_.Listen(7200);
  ASSERT_TRUE(listener.ok());
  auto client_side = transport_.Connect(7200);
  ASSERT_TRUE(client_side.ok());
  std::unique_ptr<Connection> accepted;
  ASSERT_TRUE(WaitFor([&] {
    accepted = (*listener)->Accept();
    return accepted != nullptr;
  }));

  services::GraphRegistry registry;
  services::GraphBuilder b("doomed", env);
  b.Adopt(std::move(accepted));  // the client leg
  auto good = b.Connect(7201);   // establishes a leg
  auto bad = b.Connect(7299);    // nobody listens here -> poisons the builder
  EXPECT_FALSE(b.ok());
  EXPECT_TRUE(good.valid());
  EXPECT_FALSE(bad.valid());

  std::unique_ptr<Connection> backend_peer;
  ASSERT_TRUE(WaitFor([&] {
    backend_peer = (*backend)->Accept();
    return backend_peer != nullptr;
  }));

  const Status status = b.Launch(registry);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(registry.stats().graphs_adopted, 0u);

  // Both already-open legs must be closed: peers observe EOF.
  char buf[16];
  EXPECT_TRUE(WaitFor([&] { return !backend_peer->Read(buf, sizeof(buf)).ok(); }));
  EXPECT_TRUE(WaitFor([&] { return !(*client_side)->Read(buf, sizeof(buf)).ok(); }));
  platform.Stop();
}

TEST_F(GraphBuilderTest, AbandonedBuilderClosesLegsOnDestruction) {
  auto& platform = MakePlatform();
  platform.Start();
  ScopedPlatformStop stop_guard(platform);
  runtime::PlatformEnv& env = platform.env();

  auto listener = transport_.Listen(7300);
  ASSERT_TRUE(listener.ok());
  auto client_side = transport_.Connect(7300);
  ASSERT_TRUE(client_side.ok());
  std::unique_ptr<Connection> accepted;
  ASSERT_TRUE(WaitFor([&] {
    accepted = (*listener)->Accept();
    return accepted != nullptr;
  }));

  {
    services::GraphBuilder b("abandoned", env);
    b.Adopt(std::move(accepted));
    // No Launch: the builder goes out of scope with an un-launched leg.
  }
  char buf[16];
  EXPECT_TRUE(WaitFor([&] { return !(*client_side)->Read(buf, sizeof(buf)).ok(); }));
  platform.Stop();
}

TEST_F(GraphBuilderTest, ValidationRejectsMalformedTopology) {
  auto& platform = MakePlatform();
  platform.Start();
  ScopedPlatformStop stop_guard(platform);
  runtime::PlatformEnv& env = platform.env();

  auto listener = transport_.Listen(7400);
  ASSERT_TRUE(listener.ok());
  auto client_side = transport_.Connect(7400);
  ASSERT_TRUE(client_side.ok());
  std::unique_ptr<Connection> accepted;
  ASSERT_TRUE(WaitFor([&] {
    accepted = (*listener)->Accept();
    return accepted != nullptr;
  }));

  services::GraphRegistry registry;
  services::GraphBuilder b("dangling", env);
  auto client = b.Adopt(std::move(accepted));
  // Source with no consumer: must be rejected, not launched half-wired.
  b.Source("in", client, std::make_unique<runtime::RawDeserializer>());
  const Status status = b.Launch(registry);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.live_graphs(), 0u);
  char buf[16];
  EXPECT_TRUE(WaitFor([&] { return !(*client_side)->Read(buf, sizeof(buf)).ok(); }));

  // Stage with no outputs: its handler's first Emit(0, ...) would index an
  // empty vector at run time, so Launch must reject it up front.
  auto client2_side = transport_.Connect(7400);
  ASSERT_TRUE(client2_side.ok());
  std::unique_ptr<Connection> accepted2;
  ASSERT_TRUE(WaitFor([&] {
    accepted2 = (*listener)->Accept();
    return accepted2 != nullptr;
  }));
  services::GraphBuilder b2("sinkless", env);
  auto client2 = b2.Adopt(std::move(accepted2));
  auto in2 = b2.Source("in", client2, std::make_unique<runtime::RawDeserializer>());
  b2.Stage("drop",
           [](runtime::Msg&, size_t, runtime::EmitContext&) {
             return runtime::HandleResult::kConsumed;
           })
      .From(in2);
  const Status status2 = b2.Launch(registry);
  EXPECT_EQ(status2.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.live_graphs(), 0u);
  EXPECT_TRUE(WaitFor([&] { return !(*client2_side)->Read(buf, sizeof(buf)).ok(); }));
  platform.Stop();
}

TEST_F(GraphBuilderTest, RejectsSecondWriterOnOneConnection) {
  auto& platform = MakePlatform();
  platform.Start();
  ScopedPlatformStop stop_guard(platform);
  runtime::PlatformEnv& env = platform.env();

  auto listener = transport_.Listen(7450);
  ASSERT_TRUE(listener.ok());
  auto client_side = transport_.Connect(7450);
  ASSERT_TRUE(client_side.ok());
  std::unique_ptr<Connection> accepted;
  ASSERT_TRUE(WaitFor([&] {
    accepted = (*listener)->Accept();
    return accepted != nullptr;
  }));

  services::GraphRegistry registry;
  services::GraphBuilder b("double-writer", env);
  auto client = b.Adopt(std::move(accepted));
  auto in = b.Source("in", client, std::make_unique<runtime::RawDeserializer>());
  auto tee = b.Tee("tee").From(in);
  b.Sink("out-1", client, std::make_unique<runtime::RawSerializer>()).From(tee);
  // A second OutputTask on the same wire would interleave partial writes;
  // the builder must reject it at declaration time.
  b.Sink("out-2", client, std::make_unique<runtime::RawSerializer>()).From(tee);
  EXPECT_FALSE(b.ok());
  const Status status = b.Launch(registry);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.live_graphs(), 0u);
  platform.Stop();
}

TEST_F(GraphBuilderTest, MemcachedProxyBackendConnectFailureClosesAllLegs) {
  // One real backend; the second port is dead. The k-th connect failure must
  // close the established leg AND the client (the pre-builder code leaked
  // the established backend connections).
  auto backend = transport_.Listen(7501);
  ASSERT_TRUE(backend.ok());

  auto& platform = MakePlatform();
  services::MemcachedProxyService::Options options;
  options.wire.mode = services::BackendMode::kPerClient;  // dedicated dialled legs
  services::MemcachedProxyService proxy({7501, 7599}, options);
  ASSERT_TRUE(platform.RegisterProgram(7500, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  auto conn = transport_.Connect(7500);
  ASSERT_TRUE(conn.ok());

  std::unique_ptr<Connection> backend_peer;
  ASSERT_TRUE(WaitFor([&] {
    backend_peer = (*backend)->Accept();
    return backend_peer != nullptr;
  }));

  char buf[16];
  EXPECT_TRUE(WaitFor([&] { return !backend_peer->Read(buf, sizeof(buf)).ok(); }))
      << "established backend leg must be closed when a later connect fails";
  EXPECT_TRUE(WaitFor([&] { return !(*conn)->Read(buf, sizeof(buf)).ok(); }));
  EXPECT_EQ(proxy.live_graphs(), 0u);
  platform.Stop();
}

// Differential check of folded MergeTrees over 1..4 streams against a
// reference fold. Reads are capped at 23 bytes so records straddle fills.
// Each stream arrives either whole (one write, then close) or trickled in
// 61-byte chunks, whose pauses make sources release held runs mid-stream.
TEST_F(GraphBuilderTest, FoldedMergeTreeMatchesReference) {
  StackCostModel capped = StackCostModel::Null();
  capped.max_bytes_per_op = 23;
  SimTransport capped_transport(&net_, capped);
  uint16_t port = 7600;
  for (const bool trickle : {false, true}) {
    for (size_t streams = 1; streams <= 4; ++streams) {
      for (const bool sorted : {true, false}) {
        const uint64_t seed = 100 * streams + (sorted ? 1 : 2) + (trickle ? 10 : 0);
        SCOPED_TRACE(::testing::Message() << "streams=" << streams << " sorted=" << sorted
                                          << " trickle=" << trickle << " seed=" << seed);
        const uint16_t ingest_port = port++;
        const uint16_t reducer_port = port++;
        auto reducer_listener = transport_.Listen(reducer_port);
        ASSERT_TRUE(reducer_listener.ok());
        runtime::Platform platform(config_, &capped_transport);
        FoldTreeService service(streams, reducer_port);
        ASSERT_TRUE(platform.RegisterProgram(ingest_port, &service).ok());
        platform.Start();
        ScopedPlatformStop stop_guard(platform);

        Rng rng(seed);
        std::map<std::string, uint64_t> expected;
        uint64_t records = 0;
        uint64_t runs = 0;
        std::vector<std::string> wires;
        for (size_t i = 0; i < streams; ++i) {
          const std::vector<KvRecord> stream = MakeKvStream(rng, sorted);
          records += stream.size();
          runs += CountRuns(stream);
          std::string wire;
          for (const auto& [key, count] : stream) {
            expected[key] += count;
            proto::EncodeKv(key, std::to_string(count), &wire);
          }
          wires.push_back(std::move(wire));
        }

        std::vector<std::unique_ptr<Connection>> mappers;
        for (size_t i = 0; i < streams; ++i) {
          auto conn = transport_.Connect(ingest_port);
          ASSERT_TRUE(conn.ok());
          mappers.push_back(std::move(conn).value());
        }
        std::vector<size_t> sent(streams, 0);
        for (bool more = true; more;) {
          more = false;
          for (size_t i = 0; i < streams; ++i) {
            const size_t chunk = trickle ? 61 : wires[i].size();
            const size_t len = std::min(chunk, wires[i].size() - sent[i]);
            if (len > 0) {
              auto wrote = mappers[i]->Write(wires[i].data() + sent[i], len);
              ASSERT_TRUE(wrote.ok());
              sent[i] += *wrote;
            }
            more = more || sent[i] < wires[i].size();
          }
          if (trickle) {
            std::this_thread::sleep_for(50us);
          }
        }
        for (auto& mapper : mappers) {
          mapper->Close();
        }

        // The reducer leg closes only after the tree's EOF reaches its sink,
        // so everything read before the close is the whole folded stream.
        std::unique_ptr<Connection> reducer;
        ASSERT_TRUE(WaitFor([&] {
          reducer = (*reducer_listener)->Accept();
          return reducer != nullptr;
        }));
        std::string out;
        ASSERT_TRUE(WaitFor(
            [&] {
              char buf[4096];
              auto got = reducer->Read(buf, sizeof(buf));
              if (got.ok()) {
                out.append(buf, *got);
              }
              return !got.ok();
            },
            10'000ms))
            << "reducer leg still open: " << service.registry.stats().records_in << " of "
            << records << " records parsed, " << out.size() << " bytes out";

        BufferPool pool(64, 4096);
        BufferChain chain(&pool);
        ASSERT_TRUE(chain.Append(out));
        grammar::UnitParser parser(&proto::HadoopKvUnit());
        grammar::Message kv;
        std::map<std::string, uint64_t> totals;
        std::string last_key;
        bool increasing = true;
        uint64_t pairs_out = 0;
        while (parser.Feed(chain, &kv) == grammar::ParseStatus::kDone) {
          const std::string key(proto::HadoopKv(&kv).key());
          increasing = increasing && (pairs_out == 0 || key > last_key);
          totals[key] += proto::ParseCount(proto::HadoopKv(&kv).value());
          last_key = key;
          ++pairs_out;
        }
        EXPECT_TRUE(chain.empty()) << "partial record at the end of the reducer stream";
        EXPECT_EQ(totals, expected);
        // A trickled lone stream may release a run at a pause and carry its
        // tail as a second message; any MergeTask above folds that away.
        if (sorted && (!trickle || streams > 1)) {
          EXPECT_TRUE(increasing);
          EXPECT_EQ(pairs_out, expected.size());
        }

        ASSERT_TRUE(WaitFor([&] { return service.registry.stats().graphs_retired == 1; }));
        EXPECT_TRUE(WaitFor([&] { return platform.msgs().in_use() == 0; }))
            << platform.msgs().in_use() << " msgs still out";
        EXPECT_TRUE(service.last_status.ok());
        EXPECT_EQ(service.last_stats.merges, streams - 1);

        // Each source pushes at most one message per run, plus one per fill
        // that ended in a pause; a stream written whole never pauses.
        const services::RegistryStats stats = service.registry.stats();
        EXPECT_EQ(stats.records_in, records);
        EXPECT_LE(stats.records_pushed, runs + stats.readv_calls);
        if (!trickle) {
          EXPECT_EQ(stats.records_pushed, runs);
        }
        platform.Stop();
      }
    }
  }
}

}  // namespace
}  // namespace flick
