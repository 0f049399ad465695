// The load plane on its own: the one client engine (closed and open
// arrivals, HTTP and memcached) against the sim backends, and the backends'
// shared polling server.
#include <gtest/gtest.h>

#include <string>

#include "base/time_util.h"
#include "buffer/buffer_pool.h"
#include "grammar/parser.h"
#include "load/backends.h"
#include "load/load_engine.h"
#include "net/sim_transport.h"
#include "proto/memcached.h"

namespace flick {
namespace {

constexpr uint16_t kPort = 9000;
constexpr uint64_t kWindowNs = 150'000'000;

class LoadTest : public ::testing::Test {
 protected:
  LoadTest() : transport_(&net_, StackCostModel::Null()) {}

  load::LoadConfig Config(load::Protocol protocol) {
    load::LoadConfig cfg;
    cfg.protocol = protocol;
    cfg.port = kPort;
    cfg.connections = 4;
    cfg.threads = 2;
    cfg.duration_ns = kWindowNs;
    cfg.key_space = 16;
    return cfg;
  }

  // Every arrival is accounted for, and every completion has its sample.
  static void ExpectConsistent(const load::LoadResult& r) {
    EXPECT_EQ(r.latency.count(), r.completed);
    EXPECT_EQ(r.offered, r.completed + r.abandoned);
    EXPECT_GT(r.completed, 0u);
  }

  // One blocking GETK round trip; returns the reply's value.
  std::string GetValue(const std::string& key) {
    auto conn = transport_.Connect(kPort);
    EXPECT_TRUE(conn.ok());
    grammar::Message msg;
    proto::BuildRequest(&msg, proto::kMemcachedGetK, key);
    const std::string wire = proto::ToWire(msg);
    size_t sent = 0;
    const uint64_t deadline = MonotonicNanos() + 3'000'000'000ULL;
    while (sent < wire.size() && MonotonicNanos() < deadline) {
      auto wrote = (*conn)->Write(wire.data() + sent, wire.size() - sent);
      EXPECT_TRUE(wrote.ok());
      sent += wrote.ok() ? *wrote : 0;
    }
    BufferPool pool(8, 4096);
    BufferChain rx(&pool);
    grammar::UnitParser parser(&proto::MemcachedUnit());
    grammar::Message reply;
    while (MonotonicNanos() < deadline) {
      char buf[4096];
      auto got = (*conn)->Read(buf, sizeof(buf));
      if (!got.ok()) {
        break;
      }
      rx.Append(buf, *got);
      if (parser.Feed(rx, &reply) == grammar::ParseStatus::kDone) {
        (*conn)->Close();
        return std::string(proto::MemcachedCommand(&reply).value());
      }
    }
    ADD_FAILURE() << "no reply for " << key;
    return "";
  }

  SimNetwork net_;
  SimTransport transport_;
};

TEST_F(LoadTest, ClosedLoopHttp) {
  load::HttpBackend backend(&transport_, kPort, "body");
  ASSERT_TRUE(backend.Start().ok());
  for (const bool persistent : {true, false}) {
    load::LoadConfig cfg = Config(load::Protocol::kHttp);
    cfg.persistent = persistent;
    const load::LoadResult r = load::RunLoad(&transport_, cfg);
    EXPECT_EQ(r.errors, 0u) << "persistent=" << persistent;
    EXPECT_EQ(r.backlog_peak, 0u);
    ExpectConsistent(r);
  }
  backend.Stop();
}

TEST_F(LoadTest, ClosedLoopMemcached) {
  load::MemcachedBackend backend(&transport_, kPort);
  ASSERT_TRUE(backend.Start().ok());
  const load::LoadResult r = load::RunLoad(&transport_, Config(load::Protocol::kMemcached));
  EXPECT_EQ(r.errors, 0u);
  ExpectConsistent(r);
  EXPECT_GE(backend.requests_served(), r.completed);
  backend.Stop();
}

// At a rate far below capacity nothing queues for long and nothing is left
// when the window closes: every scheduled arrival completes.
TEST_F(LoadTest, OpenLoopLowRateCompletesEveryArrival) {
  load::HttpBackend http(&transport_, kPort, "body");
  ASSERT_TRUE(http.Start().ok());
  load::MemcachedBackend mc(&transport_, kPort + 1);
  ASSERT_TRUE(mc.Start().ok());
  for (const load::Protocol protocol : {load::Protocol::kHttp, load::Protocol::kMemcached}) {
    load::LoadConfig cfg = Config(protocol);
    cfg.port = protocol == load::Protocol::kHttp ? kPort : kPort + 1;
    cfg.offered_rps = 400;
    const load::LoadResult r = load::RunLoad(&transport_, cfg);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.offered, r.completed);
    EXPECT_EQ(r.abandoned, 0u);
    ExpectConsistent(r);
  }
  http.Stop();
  mc.Stop();
}

TEST_F(LoadTest, SetFractionOneSendsSets) {
  load::MemcachedBackend backend(&transport_, kPort);
  ASSERT_TRUE(backend.Start().ok());
  load::LoadConfig cfg = Config(load::Protocol::kMemcached);
  cfg.key_space = 4;
  cfg.opcode = proto::kMemcachedGet;
  cfg.set_fraction = 1.0;
  const load::LoadResult r = load::RunLoad(&transport_, cfg);
  EXPECT_EQ(r.errors, 0u);
  ExpectConsistent(r);
  // Nothing was preloaded: a key holds a value only if a SET stored it.
  for (int k = 0; k < cfg.key_space; ++k) {
    EXPECT_EQ(GetValue("key-" + std::to_string(k)), std::string(32, 'v'));
  }
  backend.Stop();
}

// A reset mid-reply costs that one request and that one connection: the
// client redials and the run keeps completing requests.
TEST_F(LoadTest, MidReplyResetCountsOneError) {
  load::HttpBackend http(&transport_, kPort, std::string(100, 'x'));
  ASSERT_TRUE(http.Start().ok());
  load::MemcachedBackend mc(&transport_, kPort + 1);
  ASSERT_TRUE(mc.Start().ok());
  for (const load::Protocol protocol : {load::Protocol::kHttp, load::Protocol::kMemcached}) {
    load::LoadConfig cfg = Config(protocol);
    cfg.port = protocol == load::Protocol::kHttp ? kPort : kPort + 1;
    FaultPlan plan;
    ConnFaultSpec rst;
    rst.rst_after_rx_bytes = 10;
    plan.conn_faults = {rst};
    net_.InjectFaults(cfg.port, std::move(plan));
    const load::LoadResult r = load::RunLoad(&transport_, cfg);
    EXPECT_EQ(net_.fault_counters(cfg.port).rsts, 1u);
    EXPECT_EQ(r.errors, 1u);
    EXPECT_GE(r.abandoned, 1u);
    ExpectConsistent(r);
  }
  http.Stop();
  mc.Stop();
}

// A reply larger than the connection's ring leaves the server in pieces.
// On a non-keep-alive request the server must still write all of it before
// it closes the connection.
TEST(PollingServerTest, HttpBackendWritesWholeReplyBeforeClosing) {
  SimNetwork net(16 * 1024);
  SimTransport transport(&net, StackCostModel::Null());
  load::HttpBackend backend(&transport, kPort, std::string(20'000, 'x'));
  ASSERT_TRUE(backend.Start().ok());
  load::LoadConfig cfg;
  cfg.port = kPort;
  cfg.connections = 2;
  cfg.threads = 1;
  cfg.persistent = false;
  cfg.duration_ns = 200'000'000;
  const load::LoadResult r = load::RunLoad(&transport, cfg);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(r.latency.count(), r.completed);
  backend.Stop();
}

}  // namespace
}  // namespace flick
