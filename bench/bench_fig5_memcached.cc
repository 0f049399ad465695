// Figure 5 (a, b): Memcached proxy throughput and latency vs CPU cores
// (1, 2, 4, 8, 16). 128 closed-loop binary-protocol clients, 10 backends
// (§6.2). Series: FLICK, FLICK-mTCP, Moxi-like.
//
// Paper shape: FLICK-kernel peaks ~126k req/s at 8 cores, FLICK-mTCP ~198k at
// 16; Moxi peaks at 4 cores (~82k) then degrades as its threads contend on
// shared structures. On this host cores are emulated by worker threads (2
// physical cores), so absolute scaling flattens early; the Moxi-vs-FLICK
// ordering and Moxi's contention plateau are the reproduced signal.
#include "bench/bench_common.h"

#include "baseline/baseline_proxies.h"
#include "services/memcached_proxy.h"

namespace flick::bench {
namespace {

// Scaled from the paper's 10 backends / 128 clients: each FLICK client graph
// owns one connection per backend (Figure 3b), so the paper's full scale
// means 1280+ simultaneously polled connections — more than this repo's
// 2-core host can drive while also running the middlebox, the backends and
// the load generator. 4 backends x 64 clients preserves the fan-out > 1
// structure and the FLICK-vs-Moxi contrast that Figure 5 demonstrates
// (kMcBackends in bench_common.h).
constexpr int kClients = 64;

// `flush_watermark`: 1 = write per pipelined request (PR 2's pooled shape,
// kept as the un-batched comparison series); larger = requests drained per
// run slice coalesce into vectored writes (the batched series).
void FlickProxy(benchmark::State& state, StackCostModel middlebox_model,
                services::BackendMode mode, size_t flush_watermark = 1) {
  const int cores = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SimNetwork net(kSimRingBytes);
    SimTransport mb_transport(&net, middlebox_model);
    SimTransport edge_transport(&net, StackCostModel::Kernel());

    MemcachedFarm farm(&edge_transport);
    runtime::Platform platform(MakePlatformConfig(cores), &mb_transport);
    services::MemcachedProxyService::Options options;
    options.wire.mode = mode;
    options.wire.conns_per_backend = 2;
    options.wire.flush_watermark_bytes = flush_watermark;
    services::MemcachedProxyService proxy(farm.ports, options);
    FLICK_CHECK(platform.RegisterProgram(11211, &proxy).ok());
    platform.Start();

    const load::LoadResult result =
        load::RunLoad(&edge_transport, MemcachedGetLoad(kClients));
    ReportLoad(state, result);
    state.counters["backend_conns"] = benchmark::Counter(
        static_cast<double>(farm.TotalAccepted()), benchmark::Counter::kAvgIterations);
    if (proxy.pool() != nullptr) {
      ReportPoolCounters(state, proxy.pool()->stats());
    }
    platform.Stop();
  }
}

void MoxiLike(benchmark::State& state) {
  const int cores = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SimNetwork net(kSimRingBytes);
    SimTransport mb_transport(&net, StackCostModel::Kernel());
    SimTransport edge_transport(&net, StackCostModel::Kernel());

    MemcachedFarm farm(&edge_transport);
    baseline::ProxyConfig cfg;
    cfg.listen_port = 11211;
    cfg.backend_ports = farm.ports;
    cfg.threads = cores;
    baseline::MoxiProxy proxy(&mb_transport, cfg);
    FLICK_CHECK(proxy.Start().ok());
    const load::LoadResult result =
        load::RunLoad(&edge_transport, MemcachedGetLoad(kClients));
    ReportLoad(state, result);
    proxy.Stop();
  }
}

// Backend connection scaling: the pooled proxy's backend fd count must stay
// at ports * conns_per_backend while the per-client proxy (the paper's
// Figure 3b shape) scales linearly with client concurrency. arg = concurrent
// clients; `backend_conns` is the reproduced signal, throughput rides along.
// These points use a short load window so the CI bench smoke stays fast.
void Fig5Conns(benchmark::State& state, services::BackendMode mode) {
  const int clients = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SimNetwork net(kSimRingBytes);
    SimTransport mb_transport(&net, StackCostModel::Kernel());
    SimTransport edge_transport(&net, StackCostModel::Kernel());

    MemcachedFarm farm(&edge_transport);
    runtime::Platform platform(MakePlatformConfig(2), &mb_transport);
    services::MemcachedProxyService::Options options;
    options.wire.mode = mode;
    options.wire.conns_per_backend = 2;
    services::MemcachedProxyService proxy(farm.ports, options);
    FLICK_CHECK(platform.RegisterProgram(11211, &proxy).ok());
    platform.Start();

    const load::LoadResult result =
        load::RunLoad(&edge_transport, MemcachedGetLoad(clients, 250'000'000));
    ReportLoad(state, result);
    state.counters["backend_conns"] = benchmark::Counter(
        static_cast<double>(farm.TotalAccepted()), benchmark::Counter::kAvgIterations);
    if (proxy.pool() != nullptr) {
      // Coalescing counters for the CI smoke: batching must keep vectored
      // writes below the request count once graphs share the pooled wires,
      // and vectored fills below the one-read-per-buffer legacy count.
      ReportPoolCounters(state, proxy.pool()->stats());
    }
    platform.Stop();
  }
}

void BM_Fig5_Flick(benchmark::State& s) {
  FlickProxy(s, StackCostModel::Kernel(), services::BackendMode::kPerClient);
}
void BM_Fig5_FlickMtcp(benchmark::State& s) {
  FlickProxy(s, StackCostModel::Mtcp(), services::BackendMode::kPerClient);
}
void BM_Fig5_FlickPooled(benchmark::State& s) {
  // Watermark 1 = write per request: PR 2's pooled shape, the un-batched
  // comparison point for the series below.
  FlickProxy(s, StackCostModel::Kernel(), services::BackendMode::kPooled,
             /*flush_watermark=*/1);
}
void BM_Fig5_FlickPooledBatched(benchmark::State& s) {
  // The batched output path: per-slice vectored writes on the pooled wires.
  FlickProxy(s, StackCostModel::Kernel(), services::BackendMode::kPooled,
             /*flush_watermark=*/32 * 1024);
}
void BM_Fig5_MoxiLike(benchmark::State& s) { MoxiLike(s); }

void BM_Fig5Conns_Pooled(benchmark::State& s) {
  Fig5Conns(s, services::BackendMode::kPooled);
}
void BM_Fig5Conns_PerClient(benchmark::State& s) {
  Fig5Conns(s, services::BackendMode::kPerClient);
}

// IO-plane shard scaling: the fig5 pooled point at io_shards = arg. With one
// shard every accept, watch sweep and pool lease funnels through ONE poller
// thread + ONE pool mutex; with N shards each connection's graph and its
// pool stripe live on the accepting shard. `pool_stripe_spills` must stay 0
// in steady state (every lease served by its home stripe) — the smoke
// asserts that and that shards > 1 never lose to shards = 1 beyond noise.
void Fig5Shards(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    SimNetwork net(kSimRingBytes);
    SimTransport mb_transport(&net, StackCostModel::Kernel());
    SimTransport edge_transport(&net, StackCostModel::Kernel());

    MemcachedFarm farm(&edge_transport);
    runtime::Platform platform(MakePlatformConfig(2, shards), &mb_transport);
    services::MemcachedProxyService::Options options;
    options.wire.mode = services::BackendMode::kPooled;
    options.wire.conns_per_backend = 2;  // per stripe
    services::MemcachedProxyService proxy(farm.ports, options);
    FLICK_CHECK(platform.RegisterProgram(11211, &proxy).ok());
    platform.Start();

    const load::LoadResult result =
        load::RunLoad(&edge_transport, MemcachedGetLoad(32, 250'000'000));
    ReportLoad(state, result);
    state.counters["backend_conns"] = benchmark::Counter(
        static_cast<double>(farm.TotalAccepted()), benchmark::Counter::kAvgIterations);
    ReportPoolCounters(state, proxy.pool()->stats());
    ReportShardCounters(state, platform);
    platform.Stop();
  }
}

void BM_Fig5Shards(benchmark::State& s) { Fig5Shards(s); }

void Args(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Iterations(1)->Unit(benchmark::kMillisecond);
}

void ConnsArgs(benchmark::internal::Benchmark* b) {
  b->Arg(8)->Arg(32)->Arg(64)->Iterations(1)->Unit(benchmark::kMillisecond);
}

void ShardArgs(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2)->Arg(4)->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Fig5_Flick)->Apply(Args);
BENCHMARK(BM_Fig5_FlickMtcp)->Apply(Args);
BENCHMARK(BM_Fig5_FlickPooled)->Apply(Args);
BENCHMARK(BM_Fig5_FlickPooledBatched)->Apply(Args);
BENCHMARK(BM_Fig5_MoxiLike)->Apply(Args);
BENCHMARK(BM_Fig5Conns_Pooled)->Apply(ConnsArgs);
BENCHMARK(BM_Fig5Conns_PerClient)->Apply(ConnsArgs);
BENCHMARK(BM_Fig5Shards)->Apply(ShardArgs);

}  // namespace
}  // namespace flick::bench

BENCHMARK_MAIN();
