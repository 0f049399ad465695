// Figure 4 (a–d): HTTP load balancer throughput and latency vs concurrent
// clients (100..1600), persistent (4a/4b) and non-persistent (4c/4d)
// connections. Series: FLICK, FLICK-mTCP, Apache-like, Nginx-like; ten
// backends; 137-byte payloads (§6.2/§6.3).
//
// Expected shape: persistent — FLICK above both baselines, mTCP above all,
// FLICK lowest latency; non-persistent — FLICK-kernel BELOW the baselines
// (no persistent backend connections; §6.3), FLICK-mTCP above everything.
#include "bench/bench_common.h"

#include "baseline/baseline_proxies.h"
#include "load/backends.h"
#include "services/http_lb.h"

namespace flick::bench {
namespace {

constexpr int kBackends = 10;

struct BackendFarm {
  std::vector<std::unique_ptr<load::HttpBackend>> servers;
  std::vector<uint16_t> ports;

  BackendFarm(Transport* transport, const std::string& body) {
    for (int b = 0; b < kBackends; ++b) {
      const uint16_t port = static_cast<uint16_t>(8000 + b);
      servers.push_back(std::make_unique<load::HttpBackend>(transport, port, body));
      FLICK_CHECK(servers.back()->Start().ok());
      ports.push_back(port);
    }
  }
  ~BackendFarm() {
    for (auto& s : servers) {
      s->Stop();
    }
  }
};

void FlickLb(benchmark::State& state, StackCostModel middlebox_model, bool persistent,
             services::BackendMode mode = services::BackendMode::kPerClient) {
  const int concurrency = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SimNetwork net(kSimRingBytes);
    SimTransport mb_transport(&net, middlebox_model);
    SimTransport edge_transport(&net, StackCostModel::Kernel());

    BackendFarm farm(&edge_transport, std::string(137, 'x'));
    runtime::Platform platform(MakePlatformConfig(2), &mb_transport);
    // Figure 4 reproduces the paper's per-client backend shape (§6.3 explains
    // Fig. 4c through it) — pooled transport is its own series, not a silent
    // replacement.
    services::HttpLbService::Options options;
    options.wire.mode = mode;
    services::HttpLbService lb(farm.ports, options);
    FLICK_CHECK(platform.RegisterProgram(80, &lb).ok());
    platform.Start();

    const load::LoadResult result =
        load::RunLoad(&edge_transport, HttpGetLoad(concurrency, persistent));
    ReportLoad(state, result);
    platform.Stop();
  }
}

void BaselineLb(benchmark::State& state, bool apache_like, bool persistent) {
  const int concurrency = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SimNetwork net(kSimRingBytes);
    SimTransport mb_transport(&net, StackCostModel::Kernel());
    SimTransport edge_transport(&net, StackCostModel::Kernel());

    BackendFarm farm(&edge_transport, std::string(137, 'x'));
    baseline::ProxyConfig cfg;
    cfg.listen_port = 80;
    cfg.backend_ports = farm.ports;

    const load::LoadConfig load_cfg = HttpGetLoad(concurrency, persistent);

    load::LoadResult result;
    if (apache_like) {
      cfg.threads = 16;
      baseline::ThreadedProxy proxy(&mb_transport, cfg);
      FLICK_CHECK(proxy.Start().ok());
      result = load::RunLoad(&edge_transport, load_cfg);
      proxy.Stop();
    } else {
      cfg.threads = 4;
      baseline::EventProxy proxy(&mb_transport, cfg);
      FLICK_CHECK(proxy.Start().ok());
      result = load::RunLoad(&edge_transport, load_cfg);
      proxy.Stop();
    }
    ReportLoad(state, result);
  }
}

// Cheap CI variant of the fig4 HTTP series: the same middlebox and backend
// farm as the figure, but a short load window and two concurrency points so
// the bench-smoke job can gate HTTP throughput against BENCH_BASELINE.json
// next to the fig5 pooled series. The pooled point also exports the wire
// coalescing counters so the smoke's batching/fill asserts cover HTTP.
void Fig4Smoke(benchmark::State& state, services::BackendMode mode) {
  const int concurrency = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SimNetwork net(kSimRingBytes);
    SimTransport mb_transport(&net, StackCostModel::Kernel());
    SimTransport edge_transport(&net, StackCostModel::Kernel());

    BackendFarm farm(&edge_transport, std::string(137, 'x'));
    runtime::Platform platform(MakePlatformConfig(2), &mb_transport);
    services::HttpLbService::Options options;
    options.wire.mode = mode;
    services::HttpLbService lb(farm.ports, options);
    FLICK_CHECK(platform.RegisterProgram(80, &lb).ok());
    platform.Start();

    const load::LoadResult result =
        load::RunLoad(&edge_transport, HttpGetLoad(concurrency, true, 250'000'000));
    ReportLoad(state, result);
    if (lb.pool() != nullptr) {
      ReportPoolCounters(state, lb.pool()->stats());
    }
    platform.Stop();
  }
}

// Figure 4a/4b: persistent connections.
void BM_Fig4_Flick_Persistent(benchmark::State& s) {
  FlickLb(s, StackCostModel::Kernel(), true);
}
void BM_Fig4_FlickMtcp_Persistent(benchmark::State& s) {
  FlickLb(s, StackCostModel::Mtcp(), true);
}
void BM_Fig4_FlickPooled_Persistent(benchmark::State& s) {
  FlickLb(s, StackCostModel::Kernel(), true, services::BackendMode::kPooled);
}
void BM_Fig4_ApacheLike_Persistent(benchmark::State& s) { BaselineLb(s, true, true); }
void BM_Fig4_NginxLike_Persistent(benchmark::State& s) { BaselineLb(s, false, true); }

// Figure 4c/4d: non-persistent connections.
void BM_Fig4_Flick_NonPersistent(benchmark::State& s) {
  FlickLb(s, StackCostModel::Kernel(), false);
}
void BM_Fig4_FlickMtcp_NonPersistent(benchmark::State& s) {
  FlickLb(s, StackCostModel::Mtcp(), false);
}
void BM_Fig4_ApacheLike_NonPersistent(benchmark::State& s) { BaselineLb(s, true, false); }
void BM_Fig4_NginxLike_NonPersistent(benchmark::State& s) { BaselineLb(s, false, false); }

void BM_Fig4Smoke_FlickPooled(benchmark::State& s) {
  Fig4Smoke(s, services::BackendMode::kPooled);
}
void BM_Fig4Smoke_FlickPerClient(benchmark::State& s) {
  Fig4Smoke(s, services::BackendMode::kPerClient);
}

// IO-plane shard scaling for the HTTP series: the pooled fig4 smoke point at
// io_shards = arg (accept groups + striped pool; see BM_Fig5Shards).
void BM_Fig4Shards(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    SimNetwork net(kSimRingBytes);
    SimTransport mb_transport(&net, StackCostModel::Kernel());
    SimTransport edge_transport(&net, StackCostModel::Kernel());

    BackendFarm farm(&edge_transport, std::string(137, 'x'));
    runtime::Platform platform(MakePlatformConfig(2, shards), &mb_transport);
    services::HttpLbService::Options options;
    options.wire.mode = services::BackendMode::kPooled;
    services::HttpLbService lb(farm.ports, options);
    FLICK_CHECK(platform.RegisterProgram(80, &lb).ok());
    platform.Start();

    const load::LoadResult result =
        load::RunLoad(&edge_transport, HttpGetLoad(100, true, 250'000'000));
    ReportLoad(state, result);
    ReportPoolCounters(state, lb.pool()->stats());
    ReportShardCounters(state, platform);
    platform.Stop();
  }
}

void Args(benchmark::internal::Benchmark* b) {
  b->Arg(100)->Arg(200)->Arg(400)->Arg(800)->Arg(1600)->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void SmokeArgs(benchmark::internal::Benchmark* b) {
  b->Arg(50)->Arg(200)->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Fig4_Flick_Persistent)->Apply(Args);
BENCHMARK(BM_Fig4_FlickMtcp_Persistent)->Apply(Args);
BENCHMARK(BM_Fig4_FlickPooled_Persistent)->Apply(Args);
BENCHMARK(BM_Fig4_ApacheLike_Persistent)->Apply(Args);
BENCHMARK(BM_Fig4_NginxLike_Persistent)->Apply(Args);
BENCHMARK(BM_Fig4_Flick_NonPersistent)->Apply(Args);
BENCHMARK(BM_Fig4_FlickMtcp_NonPersistent)->Apply(Args);
BENCHMARK(BM_Fig4_ApacheLike_NonPersistent)->Apply(Args);
BENCHMARK(BM_Fig4_NginxLike_NonPersistent)->Apply(Args);
BENCHMARK(BM_Fig4Smoke_FlickPooled)->Apply(SmokeArgs);
BENCHMARK(BM_Fig4Smoke_FlickPerClient)->Apply(SmokeArgs);
BENCHMARK(BM_Fig4Shards)->Arg(1)->Arg(4)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace flick::bench

BENCHMARK_MAIN();
