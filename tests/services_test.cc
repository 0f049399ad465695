// End-to-end service tests over the simulated fabric: the three paper use
// cases (HTTP LB, Memcached proxy, Hadoop aggregator), the static web server,
// the DSL-driven router, the baseline middleboxes and the load generators.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>

#include "baseline/baseline_proxies.h"
#include "load/backends.h"
#include "load/load_engine.h"
#include "load/mapper_load.h"
#include "net/sim_transport.h"
#include "proto/memcached.h"
#include "runtime/platform.h"
#include "services/dsl_service.h"
#include "services/hadoop_agg.h"
#include "services/http_lb.h"
#include "services/memcached_proxy.h"
#include "services/static_http.h"
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

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : transport_(&net_, StackCostModel::Null()) {
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

// --------------------------------------------------------------- StaticHttp ----

TEST_F(ServiceTest, StaticHttpServesFixedResponse) {
  auto& platform = MakePlatform();
  services::StaticHttpService service("static-body-137-bytes");
  ASSERT_TRUE(platform.RegisterProgram(80, &service).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  load::LoadConfig cfg;
  cfg.port = 80;
  cfg.connections = 8;
  cfg.threads = 1;
  cfg.duration_ns = 200'000'000;
  const load::LoadResult result = load::RunLoad(&transport_, cfg);
  EXPECT_GT(result.completed, 50u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(service.requests(), 0u);
  platform.Stop();
}

TEST_F(ServiceTest, StaticHttpNonPersistentConnections) {
  auto& platform = MakePlatform();
  services::StaticHttpService service("body");
  ASSERT_TRUE(platform.RegisterProgram(80, &service).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  load::LoadConfig cfg;
  cfg.port = 80;
  cfg.connections = 8;
  cfg.threads = 1;
  cfg.persistent = false;
  cfg.duration_ns = 200'000'000;
  const load::LoadResult result = load::RunLoad(&transport_, cfg);
  EXPECT_GT(result.completed, 20u);
  // Retirement runs on poller sweeps, so give the reaper a bounded window to
  // catch up with the final burst of closes before stopping the platform.
  EXPECT_TRUE(WaitFor([&] { return service.live_graphs() <= 8; }))
      << "closed connections must retire their graphs, live=" << service.live_graphs();
  platform.Stop();
}

// ------------------------------------------------------------------ HTTP LB ----

TEST_F(ServiceTest, HttpLbBalancesAcrossBackends) {
  std::vector<std::unique_ptr<load::HttpBackend>> backends;
  std::vector<uint16_t> ports;
  for (int b = 0; b < 4; ++b) {
    backends.push_back(std::make_unique<load::HttpBackend>(
        &transport_, static_cast<uint16_t>(8000 + b), "backend-" + std::to_string(b)));
    ASSERT_TRUE(backends.back()->Start().ok());
    ports.push_back(static_cast<uint16_t>(8000 + b));
  }

  auto& platform = MakePlatform();
  services::HttpLbService lb(ports);
  ASSERT_TRUE(platform.RegisterProgram(80, &lb).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  load::LoadConfig cfg;
  cfg.port = 80;
  cfg.connections = 16;
  cfg.threads = 2;
  cfg.duration_ns = 300'000'000;
  const load::LoadResult result = load::RunLoad(&transport_, cfg);
  EXPECT_GT(result.completed, 100u);
  EXPECT_EQ(result.errors, 0u);

  // With 16 connections and id-hash selection, several backends see traffic.
  int used = 0;
  for (const auto& b : backends) {
    used += b->requests_served() > 0;
  }
  EXPECT_GE(used, 2);
  platform.Stop();
  for (auto& b : backends) {
    b->Stop();
  }
}

TEST_F(ServiceTest, HttpLbNonPersistentMode) {
  load::HttpBackend backend(&transport_, 8000, "resp");
  ASSERT_TRUE(backend.Start().ok());
  auto& platform = MakePlatform();
  services::HttpLbService lb({8000});
  ASSERT_TRUE(platform.RegisterProgram(80, &lb).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  load::LoadConfig cfg;
  cfg.port = 80;
  cfg.connections = 4;
  cfg.threads = 1;
  cfg.persistent = false;
  cfg.duration_ns = 200'000'000;
  const load::LoadResult result = load::RunLoad(&transport_, cfg);
  EXPECT_GT(result.completed, 10u);
  platform.Stop();
  backend.Stop();
}

// ----------------------------------------------------------- MemcachedProxy ----

class MemcachedProxyTest : public ServiceTest {
 protected:
  void StartBackends(int n) {
    for (int b = 0; b < n; ++b) {
      backends_.push_back(std::make_unique<load::MemcachedBackend>(
          &transport_, static_cast<uint16_t>(11000 + b)));
      ASSERT_TRUE(backends_.back()->Start().ok());
      ports_.push_back(static_cast<uint16_t>(11000 + b));
    }
  }

  // Issues one request and returns the parsed response. On timeout the
  // returned message is bound but zeroed (status reads as 0/not-found).
  grammar::Message RoundTrip(uint16_t port, uint8_t opcode, const std::string& key) {
    auto conn = transport_.Connect(port);
    FLICK_CHECK(conn.ok());
    grammar::Message req;
    proto::BuildRequest(&req, opcode, key);
    const std::string wire = proto::ToWire(req);
    size_t off = 0;
    while (off < wire.size()) {
      auto wrote = (*conn)->Write(wire.data() + off, wire.size() - off);
      FLICK_CHECK(wrote.ok());
      off += *wrote;
    }
    BufferPool pool(16, 4096);
    BufferChain rx(&pool);
    grammar::UnitParser parser(&proto::MemcachedUnit());
    grammar::Message resp;
    resp.BindUnit(&proto::MemcachedUnit());
    char buf[4096];
    const auto deadline = std::chrono::steady_clock::now() + 3s;
    while (std::chrono::steady_clock::now() < deadline) {
      auto got = (*conn)->Read(buf, sizeof(buf));
      if (!got.ok()) {
        break;
      }
      if (*got == 0) {
        std::this_thread::sleep_for(100us);
        continue;
      }
      rx.Append(buf, *got);
      if (parser.Feed(rx, &resp) == grammar::ParseStatus::kDone) {
        (*conn)->Close();
        return resp;
      }
    }
    (*conn)->Close();
    return resp;
  }

  std::vector<std::unique_ptr<load::MemcachedBackend>> backends_;
  std::vector<uint16_t> ports_;
};

TEST_F(MemcachedProxyTest, RoutesGetToOwningBackend) {
  StartBackends(4);
  // Each backend holds a disjoint key space; preload markers everywhere.
  for (int b = 0; b < 4; ++b) {
    for (int k = 0; k < 64; ++k) {
      backends_[static_cast<size_t>(b)]->Preload("key-" + std::to_string(k),
                                                 "value-" + std::to_string(k));
    }
  }
  auto& platform = MakePlatform();
  services::MemcachedProxyService proxy(ports_);
  ASSERT_TRUE(platform.RegisterProgram(11211, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  for (int k = 0; k < 16; ++k) {
    grammar::Message resp = RoundTrip(11211, proto::kMemcachedGet, "key-" + std::to_string(k));
    proto::MemcachedCommand cmd(&resp);
    EXPECT_EQ(cmd.status(), proto::kMemcachedStatusOk) << "key-" << k;
    EXPECT_EQ(cmd.value(), "value-" + std::to_string(k));
  }
  platform.Stop();
  for (auto& b : backends_) {
    b->Stop();
  }
}

TEST_F(MemcachedProxyTest, SameKeyAlwaysSameBackend) {
  StartBackends(4);
  auto& platform = MakePlatform();
  services::MemcachedProxyService proxy(ports_);
  ASSERT_TRUE(platform.RegisterProgram(11211, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  // SET then GET through the proxy: the GET must find the SET's backend.
  {
    auto conn = transport_.Connect(11211);
    ASSERT_TRUE(conn.ok());
    grammar::Message set;
    proto::BuildRequest(&set, proto::kMemcachedSet, "sticky", "glue");
    const std::string wire = proto::ToWire(set);
    size_t off = 0;
    while (off < wire.size()) {
      auto wrote = (*conn)->Write(wire.data() + off, wire.size() - off);
      ASSERT_TRUE(wrote.ok());
      off += *wrote;
    }
    // Await the SET response before closing so ordering is guaranteed.
    BufferPool pool(16, 4096);
    BufferChain rx(&pool);
    grammar::UnitParser parser(&proto::MemcachedUnit());
    grammar::Message resp;
    char buf[1024];
    ASSERT_TRUE(WaitFor([&] {
      auto got = (*conn)->Read(buf, sizeof(buf));
      if (got.ok() && *got > 0) {
        rx.Append(buf, *got);
      }
      return parser.Feed(rx, &resp) == grammar::ParseStatus::kDone;
    }));
  }
  grammar::Message resp = RoundTrip(11211, proto::kMemcachedGet, "sticky");
  proto::MemcachedCommand cmd(&resp);
  EXPECT_EQ(cmd.status(), proto::kMemcachedStatusOk);
  EXPECT_EQ(cmd.value(), "glue");
  platform.Stop();
  for (auto& b : backends_) {
    b->Stop();
  }
}

TEST_F(MemcachedProxyTest, SustainedClosedLoopLoad) {
  StartBackends(4);
  for (auto& b : backends_) {
    for (int k = 0; k < 1000; ++k) {
      b->Preload("key-" + std::to_string(k), "v");
    }
  }
  auto& platform = MakePlatform();
  services::MemcachedProxyService proxy(ports_);
  ASSERT_TRUE(platform.RegisterProgram(11211, &proxy).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  load::LoadConfig cfg;
  cfg.protocol = load::Protocol::kMemcached;
  cfg.port = 11211;
  cfg.connections = 16;
  cfg.threads = 2;
  cfg.opcode = proto::kMemcachedGet;
  cfg.duration_ns = 300'000'000;
  const load::LoadResult result = load::RunLoad(&transport_, cfg);
  EXPECT_GT(result.completed, 100u);
  EXPECT_EQ(result.errors, 0u);
  platform.Stop();
  for (auto& b : backends_) {
    b->Stop();
  }
}

// ---------------------------------------------------------------- DSL router ----

TEST_F(MemcachedProxyTest, DslRouterServesAndCaches) {
  StartBackends(2);
  for (auto& b : backends_) {
    b->Preload("cached-key", "cached-value");
  }
  auto& platform = MakePlatform();
  auto service = services::DslService::Create(services::kMemcachedRouterSource,
                                              "memcached", ports_);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(platform.RegisterProgram(11211, service->get()).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  // First GETK goes to a backend and populates the router cache.
  grammar::Message r1 = RoundTrip(11211, proto::kMemcachedGetK, "cached-key");
  EXPECT_EQ(proto::MemcachedCommand(&r1).value(), "cached-value");

  // The cache is shared across connections (global dict): a second request
  // on a NEW connection must be served from the middlebox cache.
  ASSERT_TRUE(WaitFor([&] {
    return platform.state().Get("memcached.cache", "cached-key").has_value();
  }));
  const uint64_t backend_hits_before =
      backends_[0]->requests_served() + backends_[1]->requests_served();
  grammar::Message r2 = RoundTrip(11211, proto::kMemcachedGetK, "cached-key");
  EXPECT_EQ(proto::MemcachedCommand(&r2).value(), "cached-value");
  const uint64_t backend_hits_after =
      backends_[0]->requests_served() + backends_[1]->requests_served();
  EXPECT_EQ(backend_hits_after, backend_hits_before)
      << "cache hit must not reach any backend";
  platform.Stop();
  for (auto& b : backends_) {
    b->Stop();
  }
}

TEST_F(MemcachedProxyTest, DslRouterPooledModeCountsLoweredDispatch) {
  StartBackends(2);
  for (auto& b : backends_) {
    b->Preload("pooled-key", "pooled-value");
  }
  auto& platform = MakePlatform();
  services::DslService::Options options;
  options.wire.mode = services::BackendMode::kPooled;
  options.wire.conns_per_backend = 2;
  auto service = services::DslService::Create(services::kMemcachedRouterSource,
                                              "memcached", ports_, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_NE((*service)->pool(), nullptr) << "pooled mode must build a BackendPool";
  ASSERT_TRUE(platform.RegisterProgram(11211, service->get()).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  grammar::Message r = RoundTrip(11211, proto::kMemcachedGet, "pooled-key");
  EXPECT_EQ(proto::MemcachedCommand(&r).value(), "pooled-value");

  // Both rules of Listing 1 lower, so every message (request in, response
  // back) takes the native path and none leaks to the evaluator.
  const services::RegistryStats stats = (*service)->stats();
  EXPECT_GT(stats.dsl_lowered_msgs, 0u);
  EXPECT_EQ(stats.dsl_interp_fallbacks, 0u);
  platform.Stop();
  for (auto& b : backends_) {
    b->Stop();
  }
}

TEST_F(MemcachedProxyTest, DslRouterInterpArmCountsFallbacks) {
  StartBackends(2);
  for (auto& b : backends_) {
    b->Preload("interp-key", "interp-value");
  }
  auto& platform = MakePlatform();
  services::DslService::Options options;
  options.lower = false;  // the BM_DslAblation interp arm
  auto service = services::DslService::Create(services::kMemcachedRouterSource,
                                              "memcached", ports_, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(platform.RegisterProgram(11211, service->get()).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  grammar::Message r = RoundTrip(11211, proto::kMemcachedGet, "interp-key");
  EXPECT_EQ(proto::MemcachedCommand(&r).value(), "interp-value");

  const services::RegistryStats stats = (*service)->stats();
  EXPECT_EQ(stats.dsl_lowered_msgs, 0u);
  EXPECT_GT(stats.dsl_interp_fallbacks, 0u);
  platform.Stop();
  for (auto& b : backends_) {
    b->Stop();
  }
}

// WireOptions lifetime overrides must reach the DSL graphs end-to-end: a
// quiet keep-alive client gets reaped by the per-service idle window even
// though the platform default would keep it open forever.
TEST_F(MemcachedProxyTest, DslWireLifetimeOverridesReachLegs) {
  StartBackends(2);
  for (auto& b : backends_) {
    b->Preload("idle-key", "idle-value");
  }
  auto& platform = MakePlatform();
  services::DslService::Options options;
  options.wire.idle_timeout_ns = 30'000'000;  // 30ms
  auto service = services::DslService::Create(services::kMemcachedRouterSource,
                                              "memcached", ports_, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(platform.RegisterProgram(11211, service->get()).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  auto conn = transport_.Connect(11211);
  ASSERT_TRUE(conn.ok());
  grammar::Message req;
  proto::BuildRequest(&req, proto::kMemcachedGet, "idle-key");
  const std::string wire = proto::ToWire(req);
  size_t off = 0;
  while (off < wire.size()) {
    auto wrote = (*conn)->Write(wire.data() + off, wire.size() - off);
    ASSERT_TRUE(wrote.ok());
    off += *wrote;
  }
  // Drain the response, then go quiet.
  BufferPool pool(16, 4096);
  BufferChain rx(&pool);
  grammar::UnitParser parser(&proto::MemcachedUnit());
  grammar::Message resp;
  resp.BindUnit(&proto::MemcachedUnit());
  char buf[4096];
  ASSERT_TRUE(WaitFor([&] {
    auto got = (*conn)->Read(buf, sizeof(buf));
    if (got.ok() && *got > 0) {
      rx.Append(buf, *got);
    }
    return parser.Feed(rx, &resp) == grammar::ParseStatus::kDone;
  }));
  EXPECT_EQ(proto::MemcachedCommand(&resp).value(), "idle-value");

  // Idle client: the wire-level override closes it server-side.
  ASSERT_TRUE(WaitFor([&] {
    auto got = (*conn)->Read(buf, sizeof(buf));
    return !got.ok();
  }));
  ASSERT_TRUE(
      WaitFor([&] { return (*service)->registry().stats().idle_closed >= 1; }));
  (*conn)->Close();
  platform.Stop();
  for (auto& b : backends_) {
    b->Stop();
  }
}

// ---------------------------------------------------------------- RESP router ----

class RespRouterTest : public ServiceTest {
 protected:
  // `*3\r\n$<n>\r\n<cmd>\r\n$<n>\r\n<key>\r\n$<n>\r\n<val>\r\n` (the DSL
  // router's fixed-arity-3 subset; GET carries an empty value).
  static std::string RespCmd(std::string_view cmd, std::string_view key,
                             std::string_view val) {
    std::string out = "*3\r\n";
    for (std::string_view part : {cmd, key, val}) {
      out += "$" + std::to_string(part.size()) + "\r\n";
      out.append(part);
      out += "\r\n";
    }
    return out;
  }

  // Consumes one complete bulk-string reply from `rx` if present.
  static std::optional<std::string> TryParseBulk(std::string& rx) {
    if (rx.empty() || rx[0] != '$') {
      return std::nullopt;
    }
    const size_t nl = rx.find("\r\n");
    if (nl == std::string::npos) {
      return std::nullopt;
    }
    const size_t len = std::stoul(rx.substr(1, nl - 1));
    const size_t total = nl + 2 + len + 2;
    if (rx.size() < total) {
      return std::nullopt;
    }
    std::string data = rx.substr(nl + 2, len);
    rx.erase(0, total);
    return data;
  }

  // Writes `request` and blocks for the bulk reply (empty on timeout).
  std::string RoundTrip(Connection& conn, const std::string& request) {
    size_t off = 0;
    while (off < request.size()) {
      auto wrote = conn.Write(request.data() + off, request.size() - off);
      FLICK_CHECK(wrote.ok());
      off += *wrote;
    }
    std::string reply;
    char buf[4096];
    const bool got_reply = WaitFor([&] {
      auto got = conn.Read(buf, sizeof(buf));
      if (got.ok() && *got > 0) {
        rx_.append(buf, *got);
      }
      if (auto bulk = TryParseBulk(rx_); bulk.has_value()) {
        reply = std::move(*bulk);
        return true;
      }
      return false;
    });
    FLICK_CHECK(got_reply);
    return reply;
  }

  std::string rx_;
};

TEST_F(RespRouterTest, ServesGetAndSetThroughPooledPlane) {
  load::RespBackend b0(&transport_, 6400);
  load::RespBackend b1(&transport_, 6401);
  ASSERT_TRUE(b0.Start().ok());
  ASSERT_TRUE(b1.Start().ok());

  auto& platform = MakePlatform();
  auto service = services::DslService::Create(services::kRespRouterSource,
                                              "resp_router", {6400, 6401});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(platform.RegisterProgram(6379, service->get()).ok());
  platform.Start();
  ScopedPlatformStop stop_guard(platform);

  auto conn = transport_.Connect(6379);
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(RoundTrip(**conn, RespCmd("SET", "alpha", "one")), "OK");
  EXPECT_EQ(RoundTrip(**conn, RespCmd("SET", "beta", "two")), "OK");
  EXPECT_EQ(RoundTrip(**conn, RespCmd("GET", "alpha", "")), "one");
  EXPECT_EQ(RoundTrip(**conn, RespCmd("GET", "beta", "")), "two");
  EXPECT_EQ(RoundTrip(**conn, RespCmd("GET", "missing", "")), "");
  (*conn)->Close();

  // The RESP program is fully lowerable: zero evaluator fallbacks.
  const services::RegistryStats stats = (*service)->stats();
  EXPECT_GT(stats.dsl_lowered_msgs, 0u);
  EXPECT_EQ(stats.dsl_interp_fallbacks, 0u);
  // Keys hash across both backends; at least one request reached each or the
  // split landed on one — either way every request was served by a backend.
  EXPECT_GE(b0.requests_served() + b1.requests_served(), 5u);
  platform.Stop();
  b0.Stop();
  b1.Stop();
}

// ---------------------------------------------------------------- Hadoop agg ----

// The combiner may merge pairs (fewer pairs out than in), but the counts the
// reducer decodes must sum to exactly the counts the mappers sent — with one
// mapper (the whole tree is the source's run fold) and with four (folds at
// the leaves, then two levels of MergeTasks).
TEST_F(ServiceTest, HadoopAggregatorPreservesCounts) {
  for (const int mappers : {1, 4}) {
    SCOPED_TRACE(mappers);
    const uint16_t reducer_port = static_cast<uint16_t>(9900 + mappers);
    const uint16_t ingest_port = static_cast<uint16_t>(9800 + mappers);
    load::ReducerSink sink(&transport_, reducer_port);
    ASSERT_TRUE(sink.Start().ok());

    auto& platform = MakePlatform();
    services::HadoopAggService agg(mappers, reducer_port);
    ASSERT_TRUE(platform.RegisterProgram(ingest_port, &agg).ok());
    platform.Start();
    ScopedPlatformStop stop_guard(platform);

    load::MapperLoadConfig cfg;
    cfg.port = ingest_port;
    cfg.mappers = mappers;
    cfg.word_length = 8;
    cfg.vocabulary = 64;
    cfg.bytes_per_mapper = 128 * 1024;
    const load::MapperResult sent = load::RunMapperLoad(&transport_, cfg);
    ASSERT_GT(sent.pairs_sent, 0u);

    // Data reaches the sink, then the graph retires once all mapper EOFs
    // propagated; the last bytes may still be on the reducer wire.
    ASSERT_TRUE(WaitFor([&] { return agg.live_graphs() == 0; }, 10'000ms));
    ASSERT_TRUE(WaitFor([&] { return sink.counts_received() >= sent.counts_sent; },
                        10'000ms));
    EXPECT_EQ(sink.counts_received(), sent.counts_sent);
    EXPECT_GT(sink.pairs_received(), 0u);
    EXPECT_LT(sink.pairs_received(), sent.pairs_sent);
    platform.Stop();
    sink.Stop();
  }
}

// ----------------------------------------------------------------- Baselines ----

TEST_F(ServiceTest, ThreadedProxyStaticMode) {
  baseline::ProxyConfig cfg;
  cfg.listen_port = 80;
  cfg.static_body = "apache-like";
  cfg.threads = 4;
  baseline::ThreadedProxy proxy(&transport_, cfg);
  ASSERT_TRUE(proxy.Start().ok());

  load::LoadConfig load_cfg;
  load_cfg.port = 80;
  load_cfg.connections = 4;
  load_cfg.threads = 1;
  load_cfg.duration_ns = 200'000'000;
  const load::LoadResult result = load::RunLoad(&transport_, load_cfg);
  EXPECT_GT(result.completed, 20u);
  proxy.Stop();
}

TEST_F(ServiceTest, ThreadedProxyForwardsToBackends) {
  load::HttpBackend backend(&transport_, 8000, "origin-response");
  ASSERT_TRUE(backend.Start().ok());
  baseline::ProxyConfig cfg;
  cfg.listen_port = 80;
  cfg.backend_ports = {8000};
  cfg.threads = 4;
  baseline::ThreadedProxy proxy(&transport_, cfg);
  ASSERT_TRUE(proxy.Start().ok());

  load::LoadConfig load_cfg;
  load_cfg.port = 80;
  load_cfg.connections = 2;
  load_cfg.threads = 1;
  load_cfg.duration_ns = 200'000'000;
  const load::LoadResult result = load::RunLoad(&transport_, load_cfg);
  EXPECT_GT(result.completed, 10u);
  EXPECT_GT(backend.requests_served(), 0u);
  proxy.Stop();
  backend.Stop();
}

TEST_F(ServiceTest, EventProxyStaticMode) {
  baseline::ProxyConfig cfg;
  cfg.listen_port = 80;
  cfg.static_body = "nginx-like";
  cfg.threads = 2;
  baseline::EventProxy proxy(&transport_, cfg);
  ASSERT_TRUE(proxy.Start().ok());

  load::LoadConfig load_cfg;
  load_cfg.port = 80;
  load_cfg.connections = 8;
  load_cfg.threads = 1;
  load_cfg.duration_ns = 200'000'000;
  const load::LoadResult result = load::RunLoad(&transport_, load_cfg);
  EXPECT_GT(result.completed, 50u);
  proxy.Stop();
}

TEST_F(ServiceTest, MoxiProxyRoutesRequests) {
  std::vector<std::unique_ptr<load::MemcachedBackend>> backends;
  std::vector<uint16_t> ports;
  for (int b = 0; b < 2; ++b) {
    backends.push_back(std::make_unique<load::MemcachedBackend>(
        &transport_, static_cast<uint16_t>(11000 + b)));
    ASSERT_TRUE(backends.back()->Start().ok());
    for (int k = 0; k < 100; ++k) {
      backends.back()->Preload("key-" + std::to_string(k), "v");
    }
    ports.push_back(static_cast<uint16_t>(11000 + b));
  }
  baseline::ProxyConfig cfg;
  cfg.listen_port = 11211;
  cfg.backend_ports = ports;
  cfg.threads = 2;
  baseline::MoxiProxy proxy(&transport_, cfg);
  ASSERT_TRUE(proxy.Start().ok());

  load::LoadConfig load_cfg;
  load_cfg.protocol = load::Protocol::kMemcached;
  load_cfg.port = 11211;
  load_cfg.connections = 8;
  load_cfg.threads = 1;
  load_cfg.key_space = 100;
  load_cfg.opcode = proto::kMemcachedGet;
  load_cfg.duration_ns = 200'000'000;
  const load::LoadResult result = load::RunLoad(&transport_, load_cfg);
  EXPECT_GT(result.completed, 20u);
  EXPECT_EQ(result.errors, 0u);
  proxy.Stop();
  for (auto& b : backends) {
    b->Stop();
  }
}

}  // namespace
}  // namespace flick
