// BackendPool tests: shared pooled connections under concurrent client
// graphs, pipelined response correlation on one wire, reconnect after a
// backend closes, pool/launch/registry stats, and the unified failure path
// (a poisoned launch returns its lease instead of closing pooled wires).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "grammar/parser.h"
#include "load/backends.h"
#include "load/mapper_load.h"
#include "net/sim_transport.h"
#include "proto/memcached.h"
#include "runtime/platform.h"
#include "services/backend_pool.h"
#include "services/graph_builder.h"
#include "services/hadoop_agg.h"
#include "services/http_lb.h"
#include "services/memcached_proxy.h"
#include "platform_stop_guard.h"

namespace flick {
namespace {

using namespace std::chrono_literals;

template <typename Cond>
bool WaitFor(Cond cond, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) {
      return true;
    }
    std::this_thread::sleep_for(200us);
  }
  return cond();
}

// Closed-loop memcached binary client over a raw sim connection.
class TestClient {
 public:
  TestClient(Transport* transport, uint16_t port)
      : pool_(64, 8192), parser_(&proto::MemcachedUnit()) {
    auto conn = transport->Connect(port);
    ok_ = conn.ok();
    if (ok_) {
      conn_ = std::move(conn).value();
      rx_.set_pool(&pool_);
    }
  }

  bool ok() const { return ok_; }
  Connection& conn() { return *conn_; }

  // Pipelined burst: writes `count` GETs back to back (giving the pooled
  // wire a backlog to coalesce), then reads all `count` responses. Returns
  // responses whose value matched `expected`.
  size_t GetBurst(const std::string& key, const std::string& expected, size_t count,
                  std::chrono::milliseconds timeout = 5000ms) {
    grammar::Message req;
    proto::BuildRequest(&req, proto::kMemcachedGet, key);
    const std::string one = proto::ToWire(req);
    std::string wire;
    for (size_t i = 0; i < count; ++i) {
      wire += one;
    }
    size_t off = 0;
    while (off < wire.size()) {
      auto wrote = conn_->Write(wire.data() + off, wire.size() - off);
      if (!wrote.ok()) {
        return 0;
      }
      off += *wrote;
    }
    size_t matched = 0;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (matched < count && std::chrono::steady_clock::now() < deadline) {
      char buf[4096];
      auto got = conn_->Read(buf, sizeof(buf));
      if (!got.ok()) {
        return matched;
      }
      if (*got > 0) {
        rx_.Append(buf, *got);
        while (parser_.Feed(rx_, &msg_) == grammar::ParseStatus::kDone) {
          if (proto::MemcachedCommand(&msg_).value() == expected) {
            ++matched;
          }
        }
      } else {
        std::this_thread::sleep_for(100us);
      }
    }
    return matched;
  }

  // Sends one GET and blocks (polling) for its response value.
  bool Get(const std::string& key, std::string* value_out,
           std::chrono::milliseconds timeout = 5000ms) {
    grammar::Message req;
    proto::BuildRequest(&req, proto::kMemcachedGet, key);
    const std::string wire = proto::ToWire(req);
    size_t off = 0;
    while (off < wire.size()) {
      auto wrote = conn_->Write(wire.data() + off, wire.size() - off);
      if (!wrote.ok()) {
        return false;
      }
      off += *wrote;
    }
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      char buf[4096];
      auto got = conn_->Read(buf, sizeof(buf));
      if (!got.ok()) {
        return false;
      }
      if (*got > 0) {
        rx_.Append(buf, *got);
        if (parser_.Feed(rx_, &msg_) == grammar::ParseStatus::kDone) {
          proto::MemcachedCommand resp(&msg_);
          *value_out = std::string(resp.value());
          return true;
        }
      } else {
        std::this_thread::sleep_for(100us);
      }
    }
    return false;
  }

 private:
  BufferPool pool_;
  std::unique_ptr<Connection> conn_;
  BufferChain rx_;
  grammar::UnitParser parser_;
  grammar::Message msg_;
  bool ok_ = false;
};

// Minimal pooled middlebox owning nothing: the test owns the pool, so pool
// state stays inspectable after launch failures and graph retirements. Shape
// matches the memcached proxy (client in/out + one pooled leg per backend).
class PoolProbeService : public runtime::ServiceProgram {
 public:
  // `dead_port` != 0 injects a failing dedicated Connect AFTER the pooled
  // legs — the unified-cleanup case.
  PoolProbeService(services::BackendPool* pool, uint16_t dead_port = 0)
      : pool_(pool), dead_port_(dead_port) {}

  const char* name() const override { return "pool-probe"; }

  void OnConnection(std::unique_ptr<Connection> conn,
                    runtime::PlatformEnv& env) override {
    const grammar::Unit* unit = &proto::MemcachedUnit();
    const size_t n = pool_->backend_count();
    services::GraphBuilder b("pool-probe", env);
    auto client = b.Adopt(std::move(conn));
    auto request = b.Source("client-in", client,
                            std::make_unique<runtime::GrammarDeserializer>(unit));
    auto dispatch =
        b.Stage("dispatch",
                [n](runtime::Msg& msg, size_t input_index,
                    runtime::EmitContext& emit) {
                  if (msg.kind == runtime::Msg::Kind::kEof) {
                    if (input_index == 0) {
                      for (size_t o = 0; o <= n; ++o) {
                        runtime::MsgRef eof = emit.NewMsg();
                        eof->kind = runtime::Msg::Kind::kEof;
                        (void)emit.Emit(o, std::move(eof));
                      }
                    }
                    return runtime::HandleResult::kConsumed;
                  }
                  runtime::MsgRef fwd = emit.NewMsg();
                  fwd->kind = runtime::Msg::Kind::kGrammar;
                  fwd->gmsg = msg.gmsg;
                  const size_t out = input_index == 0 ? 0 : n;
                  return emit.Emit(out, std::move(fwd))
                             ? runtime::HandleResult::kConsumed
                             : runtime::HandleResult::kBlocked;
                })
            .From(request);
    auto legs = b.FanOutPooled(*pool_, /*capacity=*/16);
    if (dead_port_ != 0) {
      (void)b.Connect(dead_port_);  // poisons: nobody listens there
    }
    for (auto& leg : legs) {
      leg.sink.From(dispatch);
    }
    b.Sink("client-out", client, std::make_unique<runtime::GrammarSerializer>(unit))
        .From(dispatch);
    for (auto& leg : legs) {
      dispatch.From(leg.source);
    }
    last_status = b.Launch(registry);
    last_stats = b.stats();
    launched.fetch_add(1, std::memory_order_release);
  }

  services::GraphRegistry registry;
  Status last_status;
  services::GraphLaunchStats last_stats;
  std::atomic<int> launched{0};

 private:
  services::BackendPool* pool_;
  uint16_t dead_port_;
};

services::BackendPoolConfig MemcachedPoolConfig(std::vector<uint16_t> ports,
                                                size_t conns_per_backend,
                                                size_t flush_watermark = 32 * 1024) {
  const grammar::Unit* unit = &proto::MemcachedUnit();
  services::BackendPoolConfig cfg;
  cfg.ports = std::move(ports);
  cfg.conns_per_backend = conns_per_backend;
  cfg.flush_watermark_bytes = flush_watermark;
  cfg.make_serializer = [unit] {
    return std::make_unique<runtime::GrammarSerializer>(unit);
  };
  cfg.make_deserializer = [unit] {
    return std::make_unique<runtime::GrammarDeserializer>(unit);
  };
  return cfg;
}

class BackendPoolTest : public ::testing::Test {
 protected:
  BackendPoolTest() : transport_(&net_, StackCostModel::Null()) {
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

// Backend connection count stays at ports*conns_per_backend while client
// graphs come and go; every lease is released by graph retirement.
TEST_F(BackendPoolTest, SharedConnectionsAcrossConcurrentClientGraphs) {
  constexpr int kClients = 8;
  load::MemcachedBackend backend_a(&transport_, 11001);
  load::MemcachedBackend backend_b(&transport_, 11002);
  ASSERT_TRUE(backend_a.Start().ok() && backend_b.Start().ok());
  for (int i = 0; i < kClients; ++i) {
    // Preload everywhere: routing hash does not matter for the assertion.
    backend_a.Preload("key-" + std::to_string(i), "value-" + std::to_string(i));
    backend_b.Preload("key-" + std::to_string(i), "value-" + std::to_string(i));
  }

  auto& platform = MakePlatform();
  services::MemcachedProxyService::Options options;
  options.wire.conns_per_backend = 1;
  services::MemcachedProxyService proxy({11001, 11002}, options);
  ASSERT_TRUE(platform.RegisterProgram(11211, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  {
    std::vector<std::unique_ptr<TestClient>> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(std::make_unique<TestClient>(&transport_, 11211));
      ASSERT_TRUE(clients.back()->ok());
    }
    for (int i = 0; i < kClients; ++i) {
      std::string value;
      ASSERT_TRUE(clients[i]->Get("key-" + std::to_string(i), &value)) << i;
      EXPECT_EQ(value, "value-" + std::to_string(i));
    }
    // One pooled wire per backend despite kClients concurrent graphs. (The
    // dials are asynchronous; both have landed once traffic flowed, but the
    // unused-slot case still needs a wait.)
    ASSERT_TRUE(
        WaitFor([&] { return proxy.pool()->stats().conns_dialed == 2; }));
    EXPECT_EQ(backend_a.connections_accepted(), 1u);
    EXPECT_EQ(backend_b.connections_accepted(), 1u);
    EXPECT_EQ(proxy.pool()->stats().leases_acquired,
              static_cast<uint64_t>(kClients));
    for (auto& c : clients) {
      c->conn().Close();
    }
  }

  ASSERT_TRUE(WaitFor([&] { return proxy.live_graphs() == 0; }));
  ASSERT_TRUE(WaitFor([&] {
    return proxy.pool()->stats().leases_released ==
           static_cast<uint64_t>(kClients);
  }));
  EXPECT_EQ(proxy.registry().stats().detaches_run, static_cast<uint64_t>(kClients));
  EXPECT_TRUE(WaitFor([&] {
    return proxy.pool()->live_connections() == 2;  // wires survive the graphs
  }));
  platform.Stop();
}

// All clients multiplex ONE backend connection; pipelined responses must
// come back to the graph that issued the request, in order.
TEST_F(BackendPoolTest, PipelinedResponsesCorrelateAcrossSharedWire) {
  constexpr int kThreads = 6;
  constexpr int kGetsPerThread = 40;
  load::MemcachedBackend backend(&transport_, 11001);
  ASSERT_TRUE(backend.Start().ok());
  for (int t = 0; t < kThreads; ++t) {
    backend.Preload("key-" + std::to_string(t), "value-" + std::to_string(t));
  }

  auto& platform = MakePlatform();
  services::MemcachedProxyService::Options options;
  options.wire.conns_per_backend = 1;  // force full sharing
  services::MemcachedProxyService proxy({11001}, options);
  ASSERT_TRUE(platform.RegisterProgram(11211, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TestClient client(&transport_, 11211);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::string key = "key-" + std::to_string(t);
      const std::string expected = "value-" + std::to_string(t);
      for (int i = 0; i < kGetsPerThread; ++i) {
        std::string value;
        if (!client.Get(key, &value)) {
          failures.fetch_add(1);
          return;
        }
        if (value != expected) {
          mismatches.fetch_add(1);
          return;
        }
      }
      client.conn().Close();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(backend.connections_accepted(), 1u);
  const services::BackendPoolStats stats = proxy.pool()->stats();
  EXPECT_GE(stats.requests_forwarded, static_cast<uint64_t>(kThreads * kGetsPerThread));
  EXPECT_GE(stats.responses_routed, static_cast<uint64_t>(kThreads * kGetsPerThread));
  EXPECT_GE(stats.max_pipeline_depth, 1u);
  platform.Stop();
}

// A backend restart must be survived transparently: the pool redials and new
// requests succeed without any client graph being rebuilt.
TEST_F(BackendPoolTest, ReconnectsAfterBackendClose) {
  auto backend = std::make_unique<load::MemcachedBackend>(&transport_, 11001);
  ASSERT_TRUE(backend->Start().ok());
  backend->Preload("key", "before");

  auto& platform = MakePlatform();
  services::MemcachedProxyService::Options options;
  options.wire.conns_per_backend = 1;
  services::MemcachedProxyService proxy({11001}, options);
  ASSERT_TRUE(platform.RegisterProgram(11211, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  TestClient client(&transport_, 11211);
  ASSERT_TRUE(client.ok());
  std::string value;
  ASSERT_TRUE(client.Get("key", &value));
  EXPECT_EQ(value, "before");

  // Kill the backend: the pooled wire dies and the pool notices on its own.
  backend->Stop();
  backend.reset();
  ASSERT_TRUE(WaitFor([&] { return proxy.pool()->live_connections() == 0; }));

  // Bring it back on the same port; the redial ticker must re-establish the
  // wire and requests from the SAME client graph must flow again.
  backend = std::make_unique<load::MemcachedBackend>(&transport_, 11001);
  ASSERT_TRUE(backend->Start().ok());
  backend->Preload("key", "after");
  ASSERT_TRUE(WaitFor([&] { return proxy.pool()->live_connections() == 1; }));
  ASSERT_TRUE(client.Get("key", &value));
  EXPECT_EQ(value, "after");

  const services::BackendPoolStats stats = proxy.pool()->stats();
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GE(stats.disconnects, 1u);
  client.conn().Close();
  platform.Stop();
}

// Redial pacing now lives on the shard's timer wheel: a dropped wire with a
// redial hold must stay down for the WHOLE hold (no eager per-sweep dialling)
// and then come back via the wheel's periodic ticker — not a poller reaper.
TEST_F(BackendPoolTest, RedialPacingIsDrivenByTheShardWheel) {
  load::MemcachedBackend backend(&transport_, 11001);
  ASSERT_TRUE(backend.Start().ok());
  backend.Preload("key", "value");

  auto& platform = MakePlatform();
  services::MemcachedProxyService::Options options;
  options.wire.conns_per_backend = 1;
  services::MemcachedProxyService proxy({11001}, options);
  ASSERT_TRUE(platform.RegisterProgram(11211, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  TestClient client(&transport_, 11211);
  ASSERT_TRUE(client.ok());
  std::string value;
  ASSERT_TRUE(client.Get("key", &value));
  EXPECT_EQ(value, "value");

  const uint64_t wheel_fired_before =
      platform.poller(0).wheel().stats().fired;
  constexpr auto kHold = 150ms;
  const auto dropped_at = std::chrono::steady_clock::now();
  proxy.mutable_pool()->CloseConnectionForTest(
      /*backend_index=*/0, /*slot=*/0, /*stripe=*/0,
      /*redial_hold_ns=*/std::chrono::nanoseconds(kHold).count());
  ASSERT_TRUE(WaitFor([&] { return proxy.pool()->live_connections() == 0; }));

  // Mid-hold: the ticker keeps firing but must NOT dial early.
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(proxy.pool()->live_connections(), 0u)
      << "redial hold violated: dialled before the pacing window elapsed";

  ASSERT_TRUE(WaitFor([&] { return proxy.pool()->live_connections() == 1; }));
  EXPECT_GE(std::chrono::steady_clock::now() - dropped_at, kHold);
  // The reconnect was driven by wheel fires (the pool has no other clock).
  EXPECT_GT(platform.poller(0).wheel().stats().fired, wheel_fired_before);
  EXPECT_GE(proxy.pool()->stats().reconnects, 1u);

  ASSERT_TRUE(client.Get("key", &value));
  EXPECT_EQ(value, "value");
  client.conn().Close();
  platform.Stop();
}

// Unified failure path: a dedicated Connect failing AFTER FanOutPooled must
// close the client and dialled legs but only RETURN the pool lease — the
// pooled wire stays connected and keeps serving.
TEST_F(BackendPoolTest, PoisonedLaunchReturnsLeaseWithoutClosingPooledWire) {
  load::MemcachedBackend backend(&transport_, 11001);
  ASSERT_TRUE(backend.Start().ok());
  backend.Preload("key", "value");

  auto& platform = MakePlatform();
  services::BackendPool pool(MemcachedPoolConfig({11001}, 1));
  PoolProbeService probe(&pool, /*dead_port=*/59999);
  ASSERT_TRUE(platform.RegisterProgram(11211, &probe).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  auto conn = transport_.Connect(11211);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(WaitFor(
      [&] { return probe.launched.load(std::memory_order_acquire) == 1; }));
  EXPECT_FALSE(probe.last_status.ok());

  // Client leg closed by the failure path...
  char buf[8];
  EXPECT_TRUE(WaitFor([&] { return !(*conn)->Read(buf, sizeof(buf)).ok(); }));
  // ...but the pooled wire survived and the lease went back.
  ASSERT_TRUE(WaitFor([&] { return pool.live_connections() == 1; }));
  const services::BackendPoolStats stats = pool.stats();
  EXPECT_EQ(stats.leases_acquired, 1u);
  EXPECT_EQ(stats.leases_released, 1u);
  EXPECT_EQ(stats.disconnects, 0u);
  EXPECT_EQ(probe.registry.stats().graphs_adopted, 0u);
  platform.Stop();
}

// Launch stats surface the pooled topology; a successful pooled graph routes
// end to end and detaches through the registry hook.
TEST_F(BackendPoolTest, LaunchAndRegistryStatsCoverPooledLegs) {
  load::MemcachedBackend backend(&transport_, 11001);
  ASSERT_TRUE(backend.Start().ok());
  backend.Preload("key", "value");

  auto& platform = MakePlatform();
  services::BackendPool pool(MemcachedPoolConfig({11001}, 2));
  PoolProbeService probe(&pool);
  ASSERT_TRUE(platform.RegisterProgram(11211, &probe).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  TestClient client(&transport_, 11211);
  ASSERT_TRUE(client.ok());
  std::string value;
  ASSERT_TRUE(client.Get("key", &value));
  EXPECT_EQ(value, "value");

  ASSERT_TRUE(WaitFor(
      [&] { return probe.launched.load(std::memory_order_acquire) == 1; }));
  EXPECT_TRUE(probe.last_status.ok());
  EXPECT_EQ(probe.last_stats.pooled_legs, 1u);
  EXPECT_EQ(probe.last_stats.sources, 1u);
  EXPECT_EQ(probe.last_stats.sinks, 1u);
  EXPECT_EQ(probe.last_stats.connections, 1u);  // only the client wire
  EXPECT_EQ(probe.last_stats.watched, 1u);
  // 4 edges: client-in->dispatch, dispatch->pool, pool->dispatch,
  // dispatch->client-out; only 3 tasks (pool legs own no graph task).
  EXPECT_EQ(probe.last_stats.channels, 4u);
  EXPECT_EQ(probe.last_stats.tasks, 3u);

  client.conn().Close();
  ASSERT_TRUE(WaitFor([&] { return probe.registry.stats().graphs_retired == 1; }));
  EXPECT_EQ(probe.registry.stats().detaches_run, 1u);
  EXPECT_EQ(pool.stats().leases_released, 1u);
  // The second (unused) connection's initial dial is asynchronous — it may
  // land well after the traffic above on a loaded host.
  EXPECT_TRUE(WaitFor([&] { return pool.live_connections() == 2; }));
  platform.Stop();
}

// --- batched output path -------------------------------------------------------

// Pipelined bursts from several clients onto one pooled wire must coalesce:
// strictly fewer vectored writes than requests, batches > 1, and with the
// default watermark no forced flush (slice-end flushing carries the load).
TEST_F(BackendPoolTest, BatchedWritesCoalesceOnPooledWire) {
  constexpr int kThreads = 4;
  constexpr size_t kBurst = 32;
  load::MemcachedBackend backend(&transport_, 11001);
  ASSERT_TRUE(backend.Start().ok());
  backend.Preload("key", "value");

  auto& platform = MakePlatform();
  services::MemcachedProxyService::Options options;
  options.wire.conns_per_backend = 1;  // force full sharing
  services::MemcachedProxyService proxy({11001}, options);
  ASSERT_TRUE(platform.RegisterProgram(11211, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  std::atomic<size_t> matched{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      TestClient client(&transport_, 11211);
      if (!client.ok()) {
        return;
      }
      for (int round = 0; round < 3; ++round) {
        matched.fetch_add(client.GetBurst("key", "value", kBurst));
      }
      client.conn().Close();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(matched.load(), static_cast<size_t>(kThreads * 3) * kBurst);

  const services::BackendPoolStats stats = proxy.pool()->stats();
  EXPECT_GE(stats.requests_forwarded, matched.load());
  EXPECT_LT(stats.writev_calls, stats.requests_forwarded)
      << "vectored writes must stay below the message count";
  EXPECT_GE(stats.msgs_per_writev, 2u) << "no batch ever exceeded one message";
  EXPECT_EQ(stats.flushes_forced, 0u)
      << "small requests must never hit the default high-water mark";
  platform.Stop();
}

// The read-side mirror of the batching test: pipelined replies from many
// client graphs drain the shared wire through vectored fills that each span
// several responses, so transport reads stay below both the response count
// and the legacy one-read-per-buffer count.
TEST_F(BackendPoolTest, PipelinedRepliesCoalesceIntoVectoredFills) {
  constexpr int kThreads = 4;
  constexpr size_t kBurst = 32;
  load::MemcachedBackend backend(&transport_, 11001);
  ASSERT_TRUE(backend.Start().ok());
  backend.Preload("key", "value");

  auto& platform = MakePlatform();
  services::MemcachedProxyService::Options options;
  options.wire.conns_per_backend = 1;  // force full sharing
  services::MemcachedProxyService proxy({11001}, options);
  ASSERT_TRUE(platform.RegisterProgram(11211, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  std::atomic<size_t> matched{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      TestClient client(&transport_, 11211);
      if (!client.ok()) {
        return;
      }
      for (int round = 0; round < 3; ++round) {
        matched.fetch_add(client.GetBurst("key", "value", kBurst));
      }
      client.conn().Close();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(matched.load(), static_cast<size_t>(kThreads * 3) * kBurst);

  const services::BackendPoolStats stats = proxy.pool()->stats();
  EXPECT_GE(stats.responses_routed, matched.load());
  EXPECT_GT(stats.readv_calls, 0u);
  EXPECT_LT(stats.readv_calls, stats.responses_routed)
      << "vectored fills must span multiple pipelined responses";
  EXPECT_LT(stats.readv_calls, stats.reads_legacy_equivalent)
      << "the coalesced ingest path must amortise the per-buffer read loop";
  // At least one fill carried more than one ~35-byte response.
  EXPECT_GE(stats.bytes_per_readv, 70u);

  // The client-side InputTasks fill the same way, and the registry folds
  // their counters in at graph retirement exactly like the write side.
  ASSERT_TRUE(WaitFor([&] { return proxy.live_graphs() == 0; }));
  const services::RegistryStats rstats = proxy.registry().stats();
  EXPECT_GT(rstats.readv_calls, 0u);
  EXPECT_GT(rstats.bytes_per_readv, 0u);
  platform.Stop();
}

// Forced short reads (injected socket-buffer boundaries smaller than one
// response) split replies mid-fill on the shared wire; framing and FIFO
// correlation must survive every boundary.
TEST_F(BackendPoolTest, RepliesSplitMidFillStayCorrelated) {
  StackCostModel capped = StackCostModel::Null();
  capped.max_bytes_per_op = 20;  // below one serialized response
  SimTransport capped_transport(&net_, capped);

  load::MemcachedBackend backend(&transport_, 11001);
  ASSERT_TRUE(backend.Start().ok());
  backend.Preload("key-a", "value-a");
  backend.Preload("key-b", "value-b");

  runtime::Platform platform(config_, &capped_transport);
  services::MemcachedProxyService::Options options;
  options.wire.conns_per_backend = 1;
  services::MemcachedProxyService proxy({11001}, options);
  ASSERT_TRUE(platform.RegisterProgram(11211, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  std::atomic<size_t> matched{0};
  std::thread a([&] {
    TestClient client(&transport_, 11211);
    if (client.ok()) {
      matched.fetch_add(client.GetBurst("key-a", "value-a", 24));
      client.conn().Close();
    }
  });
  std::thread b([&] {
    TestClient client(&transport_, 11211);
    if (client.ok()) {
      matched.fetch_add(client.GetBurst("key-b", "value-b", 24));
      client.conn().Close();
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(matched.load(), 48u);
  const services::BackendPoolStats stats = proxy.pool()->stats();
  EXPECT_GE(stats.responses_routed, 48u);
  EXPECT_EQ(stats.responses_dropped, 0u);
  platform.Stop();
}

// A tiny watermark must force mid-slice flushes — the knob that bounds
// buffer-pool pressure when a slice carries bulk data.
TEST_F(BackendPoolTest, TinyWatermarkForcesMidSliceFlushes) {
  load::MemcachedBackend backend(&transport_, 11001);
  ASSERT_TRUE(backend.Start().ok());
  backend.Preload("key", "value");

  auto& platform = MakePlatform();
  services::MemcachedProxyService::Options options;
  options.wire.conns_per_backend = 1;
  options.wire.flush_watermark_bytes = 48;  // below two serialized GETs
  services::MemcachedProxyService proxy({11001}, options);
  ASSERT_TRUE(platform.RegisterProgram(11211, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  TestClient client(&transport_, 11211);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client.GetBurst("key", "value", 64), 64u);
  client.conn().Close();

  const services::BackendPoolStats stats = proxy.pool()->stats();
  EXPECT_GT(stats.flushes_forced, 0u);
  platform.Stop();
}

// EOF arriving while a batch is still pending must not strand it: every
// request written before the client vanished reaches the backend.
TEST_F(BackendPoolTest, EofWhileBatchPendingStillFlushes) {
  constexpr size_t kRequests = 48;
  load::MemcachedBackend backend(&transport_, 11001);
  ASSERT_TRUE(backend.Start().ok());
  backend.Preload("key", "value");

  auto& platform = MakePlatform();
  services::MemcachedProxyService::Options options;
  options.wire.conns_per_backend = 1;
  services::MemcachedProxyService proxy({11001}, options);
  ASSERT_TRUE(platform.RegisterProgram(11211, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  {
    // Fire-and-close: the burst and the EOF land in the same run slices.
    auto conn = transport_.Connect(11211);
    ASSERT_TRUE(conn.ok());
    grammar::Message req;
    proto::BuildRequest(&req, proto::kMemcachedGet, "key");
    const std::string one = proto::ToWire(req);
    std::string wire;
    for (size_t i = 0; i < kRequests; ++i) {
      wire += one;
    }
    size_t off = 0;
    while (off < wire.size()) {
      auto wrote = (*conn)->Write(wire.data() + off, wire.size() - off);
      ASSERT_TRUE(wrote.ok());
      off += *wrote;
    }
    (*conn)->Close();
  }

  const services::BackendPoolStats mid = proxy.pool()->stats();
  ASSERT_TRUE(WaitFor([&] { return backend.requests_served() >= kRequests; }))
      << "served " << backend.requests_served() << " of " << kRequests
      << " (forwarded " << proxy.pool()->stats().requests_forwarded
      << ", writev " << proxy.pool()->stats().writev_calls << ", hwm depth "
      << proxy.pool()->stats().max_pipeline_depth << ", disconnects "
      << proxy.pool()->stats().disconnects << ", at-start forwarded "
      << mid.requests_forwarded << ", released "
      << proxy.pool()->stats().leases_released << ", unwatched "
      << proxy.registry().stats().graphs_unwatched << ", routed "
      << proxy.pool()->stats().responses_routed << ", dropped "
      << proxy.pool()->stats().responses_dropped << ", live_conns "
      << proxy.pool()->live_connections() << ")";
  ASSERT_TRUE(WaitFor([&] { return proxy.live_graphs() == 0; }))
      << "live " << proxy.live_graphs() << ", adopted "
      << proxy.registry().stats().graphs_adopted << ", unwatched "
      << proxy.registry().stats().graphs_unwatched << ", retired "
      << proxy.registry().stats().graphs_retired << ", detaches "
      << proxy.registry().stats().detaches_run << ", timed_out "
      << proxy.registry().stats().detaches_timed_out << ", released "
      << proxy.pool()->stats().leases_released;
  EXPECT_EQ(proxy.pool()->stats().disconnects, 0u);
  platform.Stop();
}

// Short writes injected mid-iovec (max_bytes_per_op) must never corrupt the
// shared stream: correlation and framing survive every partial flush.
TEST_F(BackendPoolTest, PartialWritevMidIovecKeepsStreamCorrect) {
  StackCostModel capped = StackCostModel::Null();
  capped.max_bytes_per_op = 7;  // every flush is a short write mid-batch
  SimTransport capped_transport(&net_, capped);

  load::MemcachedBackend backend(&transport_, 11001);
  ASSERT_TRUE(backend.Start().ok());
  for (int t = 0; t < 3; ++t) {
    backend.Preload("key-" + std::to_string(t), "value-" + std::to_string(t));
  }

  config_.scheduler.num_workers = 2;
  platform_ = std::make_unique<runtime::Platform>(config_, &capped_transport);
  auto& platform = *platform_;
  services::MemcachedProxyService::Options options;
  options.wire.conns_per_backend = 1;
  services::MemcachedProxyService proxy({11001}, options);
  ASSERT_TRUE(platform.RegisterProgram(11211, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      TestClient client(&transport_, 11211);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::string key = "key-" + std::to_string(t);
      const std::string expected = "value-" + std::to_string(t);
      if (client.GetBurst(key, expected, 24) != 24) {
        failures.fetch_add(1);
      }
      client.conn().Close();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(proxy.pool()->stats().disconnects, 0u)
      << "partial writes must not be mistaken for wire errors";
  platform.Stop();
}

// --- exclusive (streaming) leases ----------------------------------------------

// An exclusive claim takes the slot out of circulation for everyone until
// released; release returns it without touching the wire.
TEST_F(BackendPoolTest, ExclusiveLeaseExcludesOtherAcquires) {
  auto& platform = MakePlatform();
  services::BackendPool pool(MemcachedPoolConfig({11001}, 1));
  platform.Start();
  ScopedPlatformStop stop_guard(platform);
  ASSERT_TRUE(pool.EnsureStarted(platform.env()).ok());

  auto exclusive = pool.AcquireExclusive(0);
  ASSERT_TRUE(exclusive.ok());
  EXPECT_TRUE(exclusive->exclusive());

  auto shared = pool.Acquire();
  EXPECT_FALSE(shared.ok());
  EXPECT_EQ(shared.status().code(), StatusCode::kResourceExhausted);
  auto second = pool.AcquireExclusive(0);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);

  services::PoolLease lease = std::move(exclusive).value();
  pool.Release(lease);
  EXPECT_TRUE(pool.Acquire().ok()) << "released slot must re-enter circulation";
  platform.Stop();
}

// A failed shared Acquire (a later backend fully claimed) must roll back
// cleanly: no stranded per-slot lease accounting that would block future
// exclusive claims on the earlier backends.
TEST_F(BackendPoolTest, FailedSharedAcquireLeavesNoLeaseResidue) {
  auto& platform = MakePlatform();
  services::BackendPool pool(MemcachedPoolConfig({11001, 11002}, 1));
  platform.Start();
  ScopedPlatformStop stop_guard(platform);
  ASSERT_TRUE(pool.EnsureStarted(platform.env()).ok());

  auto exclusive_b = pool.AcquireExclusive(1);  // backend 1's only slot
  ASSERT_TRUE(exclusive_b.ok());

  // Shared acquire picks backend 0's slot, then fails on backend 1 — the
  // pick on backend 0 must not count as a live lease.
  auto shared = pool.Acquire();
  ASSERT_FALSE(shared.ok());

  services::PoolLease lease_b = std::move(exclusive_b).value();
  pool.Release(lease_b);
  EXPECT_TRUE(pool.AcquireExclusive(0).ok())
      << "backend 0's slot must be idle after the aborted shared acquire";
  platform.Stop();
}

// The hadoop shape end to end: aggregation graphs stream to the reducer over
// an exclusive pooled lease. Successive batches must REUSE the persistent
// reducer wire (one dial total), retire cleanly (the detach gate waits for
// each stream's EOF), and deliver every batch's pairs.
TEST_F(BackendPoolTest, ExclusiveStreamingLegReusesReducerWireAcrossGraphs) {
  load::ReducerSink sink(&transport_, 9900);
  ASSERT_TRUE(sink.Start().ok());

  auto& platform = MakePlatform();
  services::HadoopAggService::Options options;
  options.wire.conns_per_backend = 1;  // both batches must land on the SAME wire
  services::HadoopAggService agg(/*expected_mappers=*/2, /*reducer_port=*/9900,
                                 options);
  ASSERT_TRUE(platform.RegisterProgram(9800, &agg).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  load::MapperLoadConfig cfg;
  cfg.port = 9800;
  cfg.mappers = 2;
  cfg.vocabulary = 32;
  cfg.bytes_per_mapper = 64 * 1024;

  const load::MapperResult first = load::RunMapperLoad(&transport_, cfg);
  ASSERT_GT(first.pairs_sent, 0u);
  ASSERT_TRUE(WaitFor([&] { return sink.pairs_received() > 0; }, 10'000ms));
  // graphs_retired (not live_graphs): the second graph is adopted on the
  // poller thread, so "no live graphs" is trivially true before adoption.
  ASSERT_TRUE(WaitFor(
      [&] { return agg.registry().stats().graphs_retired == 1; }, 10'000ms));

  const load::MapperResult second = load::RunMapperLoad(&transport_, cfg);
  ASSERT_GT(second.pairs_sent, 0u);
  ASSERT_TRUE(WaitFor(
      [&] { return agg.registry().stats().graphs_retired == 2; }, 10'000ms));

  ASSERT_NE(agg.pool(), nullptr);
  EXPECT_GT(sink.pairs_received(), 0u);
  const services::BackendPoolStats stats = agg.pool()->stats();
  EXPECT_EQ(stats.conns_dialed, 1u) << "second batch must reuse the reducer wire";
  EXPECT_EQ(stats.leases_acquired, 2u);
  EXPECT_EQ(stats.leases_released, 2u);
  EXPECT_EQ(stats.disconnects, 0u);
  EXPECT_GE(stats.requests_forwarded, 2u);
  EXPECT_EQ(agg.registry().stats().detaches_run, 2u);
  platform.Stop();
}

// --- striped pool (sharded IO plane) -------------------------------------------

// Leases land on the caller's home stripe; each stripe carries its own
// conns_per_backend wires, cursors and lease bookkeeping.
TEST_F(BackendPoolTest, StripedPoolKeepsLeasesOnHomeStripe) {
  auto& platform = MakePlatform();
  auto cfg = MemcachedPoolConfig({11001}, 1);
  cfg.io_shards = 2;
  services::BackendPool pool(std::move(cfg));
  platform.Start();
  ScopedPlatformStop stop_guard(platform);
  ASSERT_TRUE(pool.EnsureStarted(platform.env()).ok());
  EXPECT_EQ(pool.stripes(), 2u);

  auto lease0 = pool.Acquire(/*preferred_stripe=*/0);
  auto lease1 = pool.Acquire(/*preferred_stripe=*/1);
  ASSERT_TRUE(lease0.ok() && lease1.ok());
  EXPECT_EQ(lease0->stripe(), 0u);
  EXPECT_EQ(lease1->stripe(), 1u);
  EXPECT_EQ(pool.stats().stripe_spills, 0u);
  // Each stripe accounts its own lease.
  EXPECT_EQ(pool.SlotActiveLeases(0, 0), std::vector<uint32_t>{1});
  EXPECT_EQ(pool.SlotActiveLeases(0, 1), std::vector<uint32_t>{1});

  services::PoolLease l0 = std::move(lease0).value();
  services::PoolLease l1 = std::move(lease1).value();
  pool.Release(l0);
  pool.Release(l1);
  EXPECT_EQ(pool.SlotActiveLeases(0, 0), std::vector<uint32_t>{0});
  EXPECT_EQ(pool.SlotActiveLeases(0, 1), std::vector<uint32_t>{0});
  platform.Stop();
}

// An exhausted home stripe spills to the neighbour (counted); once the home
// stripe frees up, later leases stay home again.
TEST_F(BackendPoolTest, ExhaustedStripeSpillsToNeighbourAndCounts) {
  auto& platform = MakePlatform();
  auto cfg = MemcachedPoolConfig({11001}, 1);
  cfg.io_shards = 2;
  services::BackendPool pool(std::move(cfg));
  platform.Start();
  ScopedPlatformStop stop_guard(platform);
  ASSERT_TRUE(pool.EnsureStarted(platform.env()).ok());

  // Claim stripe 0's only slot exclusively: shared acquires preferring
  // stripe 0 must spill to stripe 1.
  auto exclusive = pool.AcquireExclusive(0, /*preferred_stripe=*/0);
  ASSERT_TRUE(exclusive.ok());
  EXPECT_EQ(exclusive->stripe(), 0u);

  auto spilled = pool.Acquire(/*preferred_stripe=*/0);
  ASSERT_TRUE(spilled.ok());
  EXPECT_EQ(spilled->stripe(), 1u);
  EXPECT_EQ(pool.stats().stripe_spills, 1u);

  services::PoolLease ex = std::move(exclusive).value();
  pool.Release(ex);
  auto home_again = pool.Acquire(/*preferred_stripe=*/0);
  ASSERT_TRUE(home_again.ok());
  EXPECT_EQ(home_again->stripe(), 0u);
  EXPECT_EQ(pool.stats().stripe_spills, 1u) << "no spill once home has room";

  services::PoolLease s = std::move(spilled).value();
  services::PoolLease h = std::move(home_again).value();
  pool.Release(s);
  pool.Release(h);
  platform.Stop();
}

// Every stripe exhausted -> the acquire fails instead of silently blocking.
TEST_F(BackendPoolTest, AllStripesExclusivelyClaimedFailsAcquire) {
  auto& platform = MakePlatform();
  auto cfg = MemcachedPoolConfig({11001}, 1);
  cfg.io_shards = 2;
  services::BackendPool pool(std::move(cfg));
  platform.Start();
  ScopedPlatformStop stop_guard(platform);
  ASSERT_TRUE(pool.EnsureStarted(platform.env()).ok());

  auto ex0 = pool.AcquireExclusive(0, 0);
  auto ex1 = pool.AcquireExclusive(0, 1);
  ASSERT_TRUE(ex0.ok() && ex1.ok());
  EXPECT_EQ(ex0->stripe(), 0u);
  EXPECT_EQ(ex1->stripe(), 1u);
  EXPECT_EQ(pool.stats().stripe_spills, 0u) << "both went to their home stripe";

  auto shared = pool.Acquire(0);
  EXPECT_FALSE(shared.ok());
  EXPECT_EQ(shared.status().code(), StatusCode::kResourceExhausted);

  services::PoolLease a = std::move(ex0).value();
  services::PoolLease b = std::move(ex1).value();
  pool.Release(a);
  pool.Release(b);
  platform.Stop();
}

// Round-robin placement must spread leases evenly over connected slots, and
// the cursor must keep cycling in bounds (the next_rr guard).
TEST_F(BackendPoolTest, RoundRobinSpreadsLeasesOverConnectedSlots) {
  load::MemcachedBackend backend(&transport_, 11001);
  ASSERT_TRUE(backend.Start().ok());

  auto& platform = MakePlatform();
  services::BackendPool pool(MemcachedPoolConfig({11001}, 2));
  platform.Start();
  ScopedPlatformStop stop_guard(platform);
  ASSERT_TRUE(pool.EnsureStarted(platform.env()).ok());
  ASSERT_TRUE(WaitFor([&] { return pool.live_connections() == 2; }));

  std::vector<services::PoolLease> leases;
  for (int i = 0; i < 4; ++i) {
    auto lease = pool.Acquire();
    ASSERT_TRUE(lease.ok()) << i;
    leases.push_back(std::move(lease).value());
  }
  EXPECT_EQ(pool.SlotActiveLeases(0), (std::vector<uint32_t>{2, 2}));
  for (auto& lease : leases) {
    pool.Release(lease);
  }
  // Many acquire/release cycles keep the cursor cycling without ever
  // indexing out of bounds (ASan guards the indexing).
  for (int i = 0; i < 100; ++i) {
    auto lease = pool.Acquire();
    ASSERT_TRUE(lease.ok());
    services::PoolLease l = std::move(lease).value();
    pool.Release(l);
  }
  EXPECT_EQ(pool.SlotActiveLeases(0), (std::vector<uint32_t>{0, 0}));
  platform.Stop();
}

// A dead slot must not capture placement while a connected sibling exists —
// the "redial-shrunk" skew: the cursor keeps rotating over the full slot
// vector, but placement prefers live wires.
TEST_F(BackendPoolTest, DeadSlotDoesNotCapturePlacement) {
  load::MemcachedBackend backend(&transport_, 11001);
  ASSERT_TRUE(backend.Start().ok());

  auto& platform = MakePlatform();
  services::BackendPool pool(MemcachedPoolConfig({11001}, 2));
  platform.Start();
  ScopedPlatformStop stop_guard(platform);
  ASSERT_TRUE(pool.EnsureStarted(platform.env()).ok());
  ASSERT_TRUE(WaitFor([&] { return pool.live_connections() == 2; }));

  // Kill slot 0 and hold its redial far in the future: a mixed dead/live
  // state the placement loop must route around.
  pool.CloseConnectionForTest(/*backend_index=*/0, /*slot=*/0, /*stripe=*/0,
                              /*redial_hold_ns=*/60'000'000'000);
  ASSERT_TRUE(WaitFor([&] { return pool.live_connections() == 1; }));

  std::vector<services::PoolLease> leases;
  for (int i = 0; i < 4; ++i) {
    auto lease = pool.Acquire();
    ASSERT_TRUE(lease.ok()) << i;
    leases.push_back(std::move(lease).value());
  }
  EXPECT_EQ(pool.SlotActiveLeases(0), (std::vector<uint32_t>{0, 4}))
      << "placement skewed onto the dead slot";
  EXPECT_EQ(pool.stats().lease_waits, 0u)
      << "no lease should have had to wait while a live slot existed";
  for (auto& lease : leases) {
    pool.Release(lease);
  }
  platform.Stop();
}

// A malformed response on a pooled HTTP wire (non-numeric status, garbage
// Content-Length) must surface — parse-error counter + wire drop — instead
// of stalling the wire (pre-fix, an overflowed Content-Length wrapped into a
// bogus body size the framing loop waited on forever).
TEST_F(BackendPoolTest, MalformedHttpResponseSurfacesInsteadOfStalling) {
  auto listener = transport_.Listen(8088);
  ASSERT_TRUE(listener.ok());
  std::atomic<bool> stop{false};
  std::thread backend([&] {
    std::vector<std::unique_ptr<Connection>> conns;
    while (!stop.load(std::memory_order_acquire)) {
      if (auto c = (*listener)->Accept()) {
        conns.push_back(std::move(c));
      }
      for (auto& c : conns) {
        char buf[512];
        auto got = c->Read(buf, sizeof(buf));
        if (got.ok() && *got > 0) {
          // Content-Length overflows uint64: the parser must reject it.
          const std::string resp =
              "HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n";
          (void)c->Write(resp.data(), resp.size());
        }
      }
      std::this_thread::sleep_for(200us);
    }
  });
  // Joins the backend thread on ANY exit path (incl. failed ASSERTs) before
  // the listener above unwinds.
  struct BackendGuard {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~BackendGuard() {
      stop.store(true, std::memory_order_release);
      if (thread.joinable()) {
        thread.join();
      }
    }
  } backend_guard{stop, backend};

  auto& platform = MakePlatform();
  services::BackendPoolConfig cfg;
  cfg.ports = {8088};
  cfg.conns_per_backend = 1;
  cfg.make_serializer = [] { return std::make_unique<runtime::HttpSerializer>(); };
  cfg.make_deserializer = [] {
    return std::make_unique<runtime::HttpDeserializer>(
        proto::HttpParser::Mode::kResponse);
  };
  services::BackendPool pool(std::move(cfg));
  platform.Start();
  ScopedPlatformStop stop_guard(platform);
  ASSERT_TRUE(pool.EnsureStarted(platform.env()).ok());

  auto lease = pool.Acquire();
  ASSERT_TRUE(lease.ok());
  runtime::Channel requests(16);
  runtime::Channel replies(16);
  pool.Attach(*lease, /*backend_index=*/0, &requests, &replies);

  runtime::MsgPool msgs(16);
  runtime::MsgRef req = msgs.Acquire();
  req->kind = runtime::Msg::Kind::kHttp;
  req->http = proto::MakeRequest("GET", "/");
  ASSERT_TRUE(requests.TryPush(std::move(req)));

  // The malformed response must be SURFACED: counted and the wire dropped —
  // not silently waited on.
  ASSERT_TRUE(WaitFor([&] { return pool.stats().response_parse_errors >= 1; }));
  EXPECT_GE(pool.stats().disconnects, 1u);
  EXPECT_EQ(pool.stats().responses_routed, 0u);

  services::PoolLease l = std::move(lease).value();
  pool.Release(l);
  platform.Stop();
}

// Quiescence under connection churn: 2,000 non-persistent clients through
// the pooled HTTP LB. A third close right after sending the request (before
// the reply), a third read the reply and then close, a third close halfway
// through the request line. Afterwards nothing per-connection may be left:
// no graph, no pool lease, no message or buffer out of its pool.
TEST_F(BackendPoolTest, HttpLbChurnLeavesNoGraphLeaseOrPoolEntryBehind) {
  constexpr int kConns = 2000;
  constexpr int kClients = 4;
  const std::string body = "churn-ok";
  load::HttpBackend backend_a(&transport_, 8100, body);
  load::HttpBackend backend_b(&transport_, 8101, body);
  ASSERT_TRUE(backend_a.Start().ok());
  ASSERT_TRUE(backend_b.Start().ok());

  auto& platform = MakePlatform();
  auto lb = std::make_unique<services::HttpLbService>(std::vector<uint16_t>{8100, 8101});
  ASSERT_TRUE(platform.RegisterProgram(80, lb.get()).ok());
  platform.Start();
  {
    ScopedPlatformStop stop_guard(platform);
    const std::string request = "GET /churn HTTP/1.1\r\nHost: lb\r\n\r\n";
    std::atomic<int> answered{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = c; i < kConns; i += kClients) {
          auto conn = transport_.Connect(80);
          if (!conn.ok()) {
            failures.fetch_add(1);
            continue;
          }
          Connection& wire = **conn;
          const size_t send = i % 3 == 2 ? request.size() / 2 : request.size();
          if (!wire.Write(request.data(), send).ok()) {
            failures.fetch_add(1);
          } else if (i % 3 == 1) {
            std::string reply;
            const bool done = WaitFor([&] {
              char buf[512];
              auto got = wire.Read(buf, sizeof(buf));
              if (got.ok() && *got > 0) {
                reply.append(buf, *got);
              }
              return reply.size() >= body.size() &&
                     reply.compare(reply.size() - body.size(), body.size(), body) == 0;
            });
            (done ? answered : failures).fetch_add(1);
          }
          wire.Close();
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    EXPECT_EQ(failures.load(), 0);
    int readers = 0;
    for (int i = 0; i < kConns; ++i) {
      readers += i % 3 == 1 ? 1 : 0;
    }
    EXPECT_EQ(answered.load(), readers);

    ASSERT_TRUE(WaitFor(
        [&] {
          return lb->registry().stats().graphs_retired == kConns &&
                 lb->live_graphs() == 0;
        },
        20000ms))
        << lb->live_graphs() << " graphs never retired";
    const services::RegistryStats stats = lb->registry().stats();
    EXPECT_EQ(stats.graphs_adopted, static_cast<uint64_t>(kConns));
    EXPECT_EQ(stats.graphs_retired, static_cast<uint64_t>(kConns));
    EXPECT_EQ(stats.launch_failures, 0u);
    const services::BackendPoolStats pool = lb->pool()->stats();
    EXPECT_EQ(pool.leases_acquired, static_cast<uint64_t>(kConns));
    EXPECT_EQ(pool.leases_released, pool.leases_acquired);
    // Replies to clients that left early are dropped on arrival; once they
    // have all landed, every message is back in the pool while it runs.
    EXPECT_TRUE(WaitFor([&] { return platform.msgs().in_use() == 0; }))
        << platform.msgs().in_use() << " msgs still out";
    platform.Stop();
  }
  // The pool's wires keep a cached fill reserve while they live; with the
  // pool gone every buffer must be back too.
  lb.reset();
  EXPECT_EQ(platform.msgs().in_use(), 0u);
  EXPECT_EQ(platform.buffers().stats().in_use, 0u);
  EXPECT_EQ(platform.msg_pool_misses(), 0u);
  backend_a.Stop();
  backend_b.Stop();
}

}  // namespace
}  // namespace flick
