// Shared harness pieces for the figure-reproduction benches.
//
// Each bench point spins up the system under test on a fresh simulated
// fabric and drives it with the one load engine (load/load_engine.h) for a
// fixed window: closed loop for the throughput figures (ReportLoad:
// requests/sec + latency from send start), open loop for the tail-latency
// points (ReportOpenLoad: offered vs achieved rate + percentiles from the
// scheduled arrival). Series names follow the paper: FLICK (kernel stack
// model), FLICK-mTCP, Apache-like, Nginx-like, Moxi-like.
#ifndef FLICK_BENCH_BENCH_COMMON_H_
#define FLICK_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "load/backends.h"
#include "load/load_engine.h"
#include "net/sim_transport.h"
#include "proto/memcached.h"
#include "runtime/platform.h"
#include "services/backend_pool.h"
#include "services/service_util.h"

namespace flick::bench {

// Load window per measured point. Short enough for a full figure sweep to
// finish in seconds, long enough to amortise warm-up.
inline constexpr uint64_t kLoadWindowNs = 1'000'000'000;

// Sim connection ring size: benches run thousands of concurrent connections,
// so the default 256 KiB/direction rings would cost GBs; 16 KiB suffices for
// the request/response sizes of every figure workload.
inline constexpr size_t kSimRingBytes = 16 * 1024;

// The memcached figures' backend farm (fig5, the DSL ablation, the tail
// benches): kMcBackends servers on ports 11000.., each preloaded with every
// key of kMcKeySpace (32-byte values). Scaled from the paper's 10 backends:
// see bench_fig5_memcached.cc.
inline constexpr int kMcBackends = 4;
inline constexpr int kMcKeySpace = 1000;

struct MemcachedFarm {
  std::vector<std::unique_ptr<load::MemcachedBackend>> servers;
  std::vector<uint16_t> ports;

  // `service_delay_ns`: see MemcachedBackend::set_service_delay_ns.
  explicit MemcachedFarm(Transport* transport, uint64_t service_delay_ns = 0) {
    for (int b = 0; b < kMcBackends; ++b) {
      const uint16_t port = static_cast<uint16_t>(11000 + b);
      servers.push_back(std::make_unique<load::MemcachedBackend>(transport, port));
      servers.back()->set_service_delay_ns(service_delay_ns);
      FLICK_CHECK(servers.back()->Start().ok());
      for (int k = 0; k < kMcKeySpace; ++k) {
        servers.back()->Preload("key-" + std::to_string(k), std::string(32, 'v'));
      }
      ports.push_back(port);
    }
  }
  ~MemcachedFarm() {
    for (auto& s : servers) {
      s->Stop();
    }
  }

  // Connections the farm ever accepted == backend fds the middlebox consumed.
  uint64_t TotalAccepted() const {
    uint64_t total = 0;
    for (const auto& s : servers) {
      total += s->connections_accepted();
    }
    return total;
  }
};

// The memcached figures' closed-loop load: `clients` connections on two
// generator threads sending binary GETs over the farm's key space to the
// proxy on port 11211.
inline load::LoadConfig MemcachedGetLoad(int clients, uint64_t duration_ns = kLoadWindowNs) {
  load::LoadConfig cfg;
  cfg.protocol = load::Protocol::kMemcached;
  cfg.port = 11211;
  cfg.connections = clients;
  cfg.threads = 2;
  cfg.key_space = kMcKeySpace;
  cfg.opcode = proto::kMemcachedGet;
  cfg.duration_ns = duration_ns;
  return cfg;
}

// The HTTP figures' closed-loop load (fig4, websrv): `clients` connections
// on two generator threads sending GETs to port 80.
inline load::LoadConfig HttpGetLoad(int clients, bool persistent,
                                    uint64_t duration_ns = kLoadWindowNs) {
  load::LoadConfig cfg;
  cfg.port = 80;
  cfg.connections = clients;
  cfg.threads = 2;
  cfg.persistent = persistent;
  cfg.duration_ns = duration_ns;
  return cfg;
}

inline runtime::PlatformConfig MakePlatformConfig(int workers, size_t io_shards = 1) {
  runtime::PlatformConfig config;
  config.scheduler.num_workers = workers;
  config.scheduler.idle_sleep_ns = 20'000;
  config.scheduler.pin_threads = false;  // workers may exceed physical cores
  config.io_buffer_count = 16384;
  config.io_buffer_size = 4096;
  config.msg_pool_size = 8192;
  config.io_shards = io_shards;
  return config;
}

// Exports a pool's wire-coalescing counters (write batching + readv fills)
// as benchmark counters — the one mapping merge_bench_smoke.py asserts over,
// so every pooled series exports the same set.
inline void ReportPoolCounters(benchmark::State& state,
                               const services::BackendPoolStats& pstats) {
  auto avg = [](uint64_t v) {
    return benchmark::Counter(static_cast<double>(v), benchmark::Counter::kAvgIterations);
  };
  state.counters["pool_writev_calls"] = avg(pstats.writev_calls);
  state.counters["pool_requests"] = avg(pstats.requests_forwarded);
  state.counters["pool_msgs_per_writev"] =
      benchmark::Counter(static_cast<double>(pstats.msgs_per_writev));
  state.counters["pool_flushes_forced"] = avg(pstats.flushes_forced);
  state.counters["pool_readv_calls"] = avg(pstats.readv_calls);
  state.counters["pool_bytes_per_readv"] =
      benchmark::Counter(static_cast<double>(pstats.bytes_per_readv));
  state.counters["pool_fills_short"] = avg(pstats.fills_short);
  state.counters["pool_reads_legacy_equivalent"] = avg(pstats.reads_legacy_equivalent);
  state.counters["pool_responses"] = avg(pstats.responses_routed);
  state.counters["pool_stripes"] =
      benchmark::Counter(static_cast<double>(pstats.stripes));
  state.counters["pool_stripe_spills"] = avg(pstats.stripe_spills);
  // Health plane: all three must read 0 on a steady-state point — the
  // benches run against healthy backends with the deadline/breaker plane
  // armed, so any nonzero value means the plane misfired under clean load
  // or a request got a kError instead of its response (merge_bench_smoke.py
  // asserts exactly that).
  state.counters["breaker_opens"] = avg(pstats.breaker_opens);
  state.counters["request_deadline_expiries"] = avg(pstats.request_deadline_expiries);
  state.counters["pool_requests_failed"] = avg(pstats.requests_failed);
}

// Exports the share-nothing plane counters of a platform: steals that
// crossed a shard-group boundary (compute plane) and pool-slice acquires that
// spilled to the global pool (memory plane). Both must read 0 on a healthy
// sharded point — benches pin every task and size slices for the load — and
// merge_bench_smoke.py asserts exactly that.
inline void ReportShardCounters(benchmark::State& state, runtime::Platform& platform) {
  state.counters["cross_shard_steals"] = benchmark::Counter(
      static_cast<double>(platform.scheduler().stats().cross_shard_steals),
      benchmark::Counter::kAvgIterations);
  state.counters["pool_slice_spills"] = benchmark::Counter(
      static_cast<double>(platform.pool_slice_spills()),
      benchmark::Counter::kAvgIterations);
}

// Exports a closed-loop run: achieved rate and latency from send start.
inline void ReportLoad(benchmark::State& state, const load::LoadResult& result) {
  auto avg = [](double v) {
    return benchmark::Counter(v, benchmark::Counter::kAvgIterations);
  };
  state.counters["reqs_per_s"] = avg(result.AchievedRps());
  state.counters["mean_lat_ms"] = avg(result.MeanMs());
  state.counters["p99_lat_ms"] = avg(result.P99Ms());
  state.counters["p999_lat_ms"] = avg(result.P999Ms());
  state.counters["errors"] = avg(static_cast<double>(result.errors));
}

// Exports an open-loop run: offered vs achieved rate, CO-free tail
// percentiles (measured from scheduled arrival timestamps — see
// load/load_engine.h and docs/BENCHMARKS.md), and the drain/error tallies.
// Used by the figure sweeps; the gated CI smoke point instead exports
// per-mode suffixed counters built from paired windows (see
// bench_tail_latency.cc's ReportWindowSeries).
inline void ReportOpenLoad(benchmark::State& state, const load::LoadResult& result) {
  auto avg = [](double v) {
    return benchmark::Counter(v, benchmark::Counter::kAvgIterations);
  };
  state.counters["offered_rps"] = avg(result.OfferedRps());
  state.counters["achieved_rps"] = avg(result.AchievedRps());
  state.counters["p50_ms"] = avg(result.P50Ms());
  state.counters["p99_ms"] = avg(result.P99Ms());
  state.counters["p999_ms"] = avg(result.P999Ms());
  state.counters["mean_ms"] = avg(result.MeanMs());
  state.counters["errors"] = avg(static_cast<double>(result.errors));
  state.counters["abandoned"] = avg(static_cast<double>(result.abandoned));
  // Sum of each generator thread's own backlog high-water mark.
  state.counters["backlog_peak"] =
      benchmark::Counter(static_cast<double>(result.backlog_peak));
}

// Exports a service registry's look-aside cache counters (0s when the
// service runs with the cache disabled — exporting them anyway keeps the
// counter schema uniform across modes for the smoke invariants).
inline void ReportCacheCounters(benchmark::State& state,
                                const services::RegistryStats& rstats) {
  auto avg = [](uint64_t v) {
    return benchmark::Counter(static_cast<double>(v), benchmark::Counter::kAvgIterations);
  };
  state.counters["cache_hits"] = avg(rstats.cache_hits);
  state.counters["cache_misses"] = avg(rstats.cache_misses);
  state.counters["cache_invalidations"] = avg(rstats.cache_invalidations);
  state.counters["cache_stale_populates_dropped"] =
      avg(rstats.cache_stale_populates_dropped);
  state.counters["cache_stale_served"] = avg(rstats.cache_stale_served);
  const uint64_t lookups = rstats.cache_hits + rstats.cache_misses;
  state.counters["cache_hit_ratio"] = benchmark::Counter(
      lookups == 0 ? 0.0
                   : static_cast<double>(rstats.cache_hits) /
                         static_cast<double>(lookups));
}

}  // namespace flick::bench

#endif  // FLICK_BENCH_BENCH_COMMON_H_
