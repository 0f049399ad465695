// Open-loop tail latency: the fig5 memcached topology (proxy + 4 backends on
// the sim fabric) driven by the load engine's Poisson open-loop arrivals
// (load/load_engine.h) instead of closed-loop ones, reporting
// coordinated-omission-free p50/p99/p999 measured from SCHEDULED arrival
// timestamps.
//
// Two modes at the SAME offered load:
//   * PooledMiss — cache mode off: every GET pays a pool lease + backend RTT.
//   * CacheHit   — look-aside cache mode on, store pre-warmed over the full
//     key space: GETs are answered from the StateStore with zero backend
//     traffic. Hit-path p99 must sit STRICTLY below the pooled-miss p99 at
//     the same offered load — that ordering is asserted by
//     merge_bench_smoke.py (invariant 8) and both p99 series are gated
//     lower-is-better by check_bench_regression.py.
// BM_TailSmokePair is the CI point: it runs the two modes as INTERLEAVED
// 200 ms windows (pooled, cache, pooled, cache, ...) against two live
// stacks and reports the per-mode MINIMUM of the per-window p99s. Pairing +
// the min-of-windows estimator is what makes the strict ordering
// assertable in CI: small shared runners take multi-ms OS preemption
// stalls that floor a whole window's p99 regardless of mode (the queueing
// signal under test is sub-ms), but interference only ever adds latency,
// so the least-interfered window estimates the intrinsic tail — and with
// nine short windows a stall-free one is near-certain for both modes.
// BM_TailLatency_* sweep offered load (and a write mix) over full 1 s
// windows for figure generation and are not part of the smoke.
#include "bench/bench_common.h"

#include <algorithm>
#include <string>
#include <vector>

#include "proto/memcached.h"
#include "services/memcached_proxy.h"

#include "base/time_util.h"
#include "buffer/buffer_pool.h"
#include "grammar/parser.h"

namespace flick::bench {
namespace {

// Backend service time: a LAN-realistic ~1 ms per request (RTT + lookup),
// served WITHOUT blocking the backend (deferred replies), so it adds
// latency to every miss-path request but no capacity ceiling. This is the
// cost the look-aside hit path gets to skip — it puts the intrinsic
// pooled-miss tail several histogram buckets above the hit tail, which is
// what makes the smoke's strict p99 ordering meaningful rather than a
// comparison of two noise floors.
constexpr uint64_t kBackendServiceDelayNs = 1'000'000;

// Sweeps every key once through the proxy over one connection, so each GET
// misses exactly once and populates the store — the measured window then
// runs at a ~100% hit ratio. Sequential blocking round trips keep it
// deterministic.
void WarmCache(Transport* transport, uint16_t port, int keys) {
  auto conn_or = transport->Connect(port);
  FLICK_CHECK(conn_or.ok());
  std::unique_ptr<Connection> conn = std::move(conn_or).value();
  BufferPool pool(64, 4096);
  BufferChain rx;
  rx.set_pool(&pool);
  grammar::UnitParser parser(&proto::MemcachedUnit());
  for (int k = 0; k < keys; ++k) {
    grammar::Message msg;
    proto::BuildRequest(&msg, proto::kMemcachedGetK, "key-" + std::to_string(k));
    const std::string wire = proto::ToWire(msg);
    size_t sent = 0;
    const uint64_t deadline = MonotonicNanos() + 3'000'000'000ULL;
    while (sent < wire.size()) {
      auto wrote = conn->Write(wire.data() + sent, wire.size() - sent);
      FLICK_CHECK(wrote.ok());
      sent += *wrote;
      FLICK_CHECK(MonotonicNanos() < deadline);
    }
    grammar::Message resp;
    for (;;) {
      char buf[4096];
      auto got = conn->Read(buf, sizeof(buf));
      FLICK_CHECK(got.ok());
      if (*got > 0) {
        rx.Append(buf, *got);
        const auto status = parser.Feed(rx, &resp);
        FLICK_CHECK(status != grammar::ParseStatus::kError);
        if (status == grammar::ParseStatus::kDone) {
          break;
        }
      }
      FLICK_CHECK(MonotonicNanos() < deadline);
    }
  }
  conn->Close();
}

load::LoadConfig OpenCfg(double offered_rps, uint64_t window_ns,
                         double set_fraction = 0.0) {
  load::LoadConfig cfg = MemcachedGetLoad(/*clients=*/32, window_ns);
  cfg.offered_rps = offered_rps;
  cfg.opcode = proto::kMemcachedGetK;
  cfg.set_fraction = set_fraction;
  return cfg;
}

// One open-loop point: arg = offered requests/second.
void TailPoint(benchmark::State& state, bool cache_mode, uint64_t window_ns,
               double set_fraction = 0.0) {
  const double offered = static_cast<double>(state.range(0));
  for (auto _ : state) {
    SimNetwork net(kSimRingBytes);
    SimTransport mb_transport(&net, StackCostModel::Kernel());
    SimTransport edge_transport(&net, StackCostModel::Kernel());

    MemcachedFarm farm(&edge_transport, kBackendServiceDelayNs);
    runtime::Platform platform(MakePlatformConfig(2), &mb_transport);
    services::MemcachedProxyService::Options options;
    options.wire.mode = services::BackendMode::kPooled;
    options.wire.conns_per_backend = 2;
    options.cache.enabled = cache_mode;
    services::MemcachedProxyService proxy(farm.ports, options);
    FLICK_CHECK(platform.RegisterProgram(11211, &proxy).ok());
    platform.Start();

    if (cache_mode) {
      WarmCache(&edge_transport, 11211, kMcKeySpace);
    }
    const load::LoadResult result =
        load::RunLoad(&edge_transport, OpenCfg(offered, window_ns, set_fraction));
    ReportOpenLoad(state, result);
    ReportCacheCounters(state, proxy.registry().stats());
    if (proxy.pool() != nullptr) {
      ReportPoolCounters(state, proxy.pool()->stats());
    }
    platform.Stop();
  }
}

// One live fig5-style stack (farm + proxy platform) in one mode. Teardown
// order matters: Stop() the platform first (workers quiesce), then the
// proxy destructs — its registry frees the remaining graphs, releasing
// their buffers — and only then the platform's pools, which must outlive
// every graph.
struct ModeStack {
  SimNetwork net{kSimRingBytes};
  SimTransport mb_transport{&net, StackCostModel::Kernel()};
  SimTransport edge_transport{&net, StackCostModel::Kernel()};
  MemcachedFarm farm{&edge_transport, kBackendServiceDelayNs};
  runtime::Platform platform{MakePlatformConfig(2), &mb_transport};
  services::MemcachedProxyService proxy;

  static services::MemcachedProxyService::Options MakeOptions(bool cache_mode) {
    services::MemcachedProxyService::Options options;
    options.wire.mode = services::BackendMode::kPooled;
    options.wire.conns_per_backend = 2;
    options.cache.enabled = cache_mode;
    return options;
  }
  explicit ModeStack(bool cache_mode)
      : proxy(farm.ports, MakeOptions(cache_mode)) {
    FLICK_CHECK(platform.RegisterProgram(11211, &proxy).ok());
    platform.Start();
    if (cache_mode) {
      WarmCache(&edge_transport, 11211, kMcKeySpace);
    }
  }
  ~ModeStack() { platform.Stop(); }
};

double MedianOf(std::vector<double> v) {
  FLICK_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double MinOf(const std::vector<double>& v) {
  FLICK_CHECK(!v.empty());
  return *std::min_element(v.begin(), v.end());
}

// Exports one mode's window series under suffixed counter names. The tail
// percentiles (p99/p999) are the MINIMUM across windows: host interference
// (OS preemption of the generator or the workers on small runners) only
// ever ADDS latency, and one multi-ms stall floors a whole window's p99
// regardless of mode — so the least-interfered window is the best estimate
// of the intrinsic tail, and short windows make a stall-free window likely.
// The rate/median stats are medians (already stable).
void ReportWindowSeries(benchmark::State& state, const std::string& suffix,
                        const std::vector<load::LoadResult>& runs) {
  auto collect = [&](double (load::LoadResult::*fn)() const) {
    std::vector<double> v;
    for (const auto& r : runs) {
      v.push_back((r.*fn)());
    }
    return v;
  };
  uint64_t errors = 0, abandoned = 0;
  for (const auto& r : runs) {
    errors += r.errors;
    abandoned += r.abandoned;
  }
  auto avg = [](double v) {
    return benchmark::Counter(v, benchmark::Counter::kAvgIterations);
  };
  state.counters["offered_rps" + suffix] =
      avg(MedianOf(collect(&load::LoadResult::OfferedRps)));
  state.counters["achieved_rps" + suffix] =
      avg(MedianOf(collect(&load::LoadResult::AchievedRps)));
  state.counters["p50_ms" + suffix] =
      avg(MedianOf(collect(&load::LoadResult::P50Ms)));
  state.counters["p99_ms" + suffix] =
      avg(MinOf(collect(&load::LoadResult::P99Ms)));
  state.counters["p999_ms" + suffix] =
      avg(MinOf(collect(&load::LoadResult::P999Ms)));
  state.counters["errors" + suffix] = avg(static_cast<double>(errors));
  state.counters["abandoned" + suffix] = avg(static_cast<double>(abandoned));
}

// The CI smoke point: paired interleaved windows, min-of-window p99 per
// mode (see the file comment and ReportWindowSeries for why). arg =
// offered requests/second.
void BM_TailSmokePair(benchmark::State& state) {
  const double offered = static_cast<double>(state.range(0));
  constexpr int kWindows = 9;
  constexpr uint64_t kWindowNs = 200'000'000;
  for (auto _ : state) {
    ModeStack pooled(/*cache_mode=*/false);
    ModeStack cached(/*cache_mode=*/true);
    std::vector<load::LoadResult> pooled_runs, cached_runs;
    for (int w = 0; w < kWindows; ++w) {
      pooled_runs.push_back(
          load::RunLoad(&pooled.edge_transport, OpenCfg(offered, kWindowNs)));
      cached_runs.push_back(
          load::RunLoad(&cached.edge_transport, OpenCfg(offered, kWindowNs)));
    }
    ReportWindowSeries(state, "_pooled_miss", pooled_runs);
    ReportWindowSeries(state, "_cache_hit", cached_runs);
    ReportCacheCounters(state, cached.proxy.registry().stats());
  }
}

// Figure sweep: offered load ramp, both modes, plus a cache point with a 5%
// SET write-through mix (exercises the populate-vs-invalidate race under
// load; cache_stale_populates_dropped may legitimately be nonzero here).
void BM_TailLatency_PooledMiss(benchmark::State& s) {
  TailPoint(s, /*cache_mode=*/false, kLoadWindowNs);
}
void BM_TailLatency_CacheMode(benchmark::State& s) {
  TailPoint(s, /*cache_mode=*/true, kLoadWindowNs);
}
void BM_TailLatency_CacheModeWriteMix(benchmark::State& s) {
  TailPoint(s, /*cache_mode=*/true, kLoadWindowNs, /*set_fraction=*/0.05);
}

void SmokeArgs(benchmark::internal::Benchmark* b) {
  // 8000 offered: far enough up the load ramp that the miss path's pool
  // queueing separates the two p99 medians by several bucket widths
  // (typically ~3.5 ms pooled vs ~1.1 ms cache on a small host), while
  // still comfortably under both modes' capacity so the point measures
  // queueing, not overload collapse.
  b->Arg(8000)->Iterations(1)->Unit(benchmark::kMillisecond);
}

void SweepArgs(benchmark::internal::Benchmark* b) {
  b->Arg(1000)->Arg(2000)->Arg(4000)->Arg(8000)->Iterations(1)->Unit(
      benchmark::kMillisecond);
}

BENCHMARK(BM_TailSmokePair)->Apply(SmokeArgs);
BENCHMARK(BM_TailLatency_PooledMiss)->Apply(SweepArgs);
BENCHMARK(BM_TailLatency_CacheMode)->Apply(SweepArgs);
BENCHMARK(BM_TailLatency_CacheModeWriteMix)->Apply(SweepArgs);

}  // namespace
}  // namespace flick::bench

BENCHMARK_MAIN();
