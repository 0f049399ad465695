// Interp-vs-compiled DSL ablation (§5 "compiled graphs" claim): the SAME
// FLICK program (Listing 1's memcached router), on the SAME topology (4
// pooled backends, 64 closed-loop binary GET clients), run three ways:
//
//   Interp       every message through the bounded evaluator (lower=false)
//   Lowered      native dispatch handlers from the lowering pass (lower=true)
//   HandWritten  services::MemcachedProxyService — the ceiling: what a human
//                writes against the runtime API directly
//
// Reproduced signal (asserted by the CI smoke, invariant 10): Lowered beats
// Interp beyond noise and lands within ~1.5x of HandWritten; the Lowered
// point reports dsl_interp_fallbacks == 0 — every message took the lowered
// path, none leaked back to the evaluator.
//
// The load is GET-only (opcode 0x00), so the router's GETK-cache never
// populates: all three arms do pure parse -> hash-route -> forward work and
// the comparison isolates dispatch cost, not cache hit ratio.
#include "bench/bench_common.h"

#include "services/dsl_service.h"
#include "services/memcached_proxy.h"

namespace flick::bench {
namespace {

constexpr int kClients = 64;
constexpr int kCores = 2;

void ReportDslCounters(benchmark::State& state,
                       const services::RegistryStats& rstats) {
  auto avg = [](uint64_t v) {
    return benchmark::Counter(static_cast<double>(v), benchmark::Counter::kAvgIterations);
  };
  state.counters["dsl_lowered_msgs"] = avg(rstats.dsl_lowered_msgs);
  state.counters["dsl_interp_fallbacks"] = avg(rstats.dsl_interp_fallbacks);
  state.counters["launch_failures"] = avg(rstats.launch_failures);
}

// The two DSL arms: identical program, topology and wire options; `lower`
// is the ONLY difference.
void DslArm(benchmark::State& state, bool lower) {
  for (auto _ : state) {
    SimNetwork net(kSimRingBytes);
    SimTransport mb_transport(&net, StackCostModel::Kernel());
    SimTransport edge_transport(&net, StackCostModel::Kernel());

    MemcachedFarm farm(&edge_transport);
    runtime::Platform platform(MakePlatformConfig(kCores), &mb_transport);
    services::DslService::Options options;
    options.wire.mode = services::BackendMode::kPooled;
    options.wire.conns_per_backend = 2;
    options.lower = lower;
    auto service = services::DslService::Create(services::kMemcachedRouterSource,
                                                "memcached", farm.ports, options);
    FLICK_CHECK(service.ok());
    FLICK_CHECK(platform.RegisterProgram(11211, service->get()).ok());
    platform.Start();

    const load::LoadResult result =
        load::RunLoad(&edge_transport, MemcachedGetLoad(kClients));
    ReportLoad(state, result);
    ReportDslCounters(state, (*service)->stats());
    if ((*service)->pool() != nullptr) {
      ReportPoolCounters(state, (*service)->pool()->stats());
    }
    platform.Stop();
  }
}

// The ceiling arm: the hand-written proxy on the identical pooled topology.
// Exports zeroed DSL counters so the smoke sees a uniform schema.
void HandWrittenArm(benchmark::State& state) {
  for (auto _ : state) {
    SimNetwork net(kSimRingBytes);
    SimTransport mb_transport(&net, StackCostModel::Kernel());
    SimTransport edge_transport(&net, StackCostModel::Kernel());

    MemcachedFarm farm(&edge_transport);
    runtime::Platform platform(MakePlatformConfig(kCores), &mb_transport);
    services::MemcachedProxyService::Options options;
    options.wire.mode = services::BackendMode::kPooled;
    options.wire.conns_per_backend = 2;
    services::MemcachedProxyService proxy(farm.ports, options);
    FLICK_CHECK(platform.RegisterProgram(11211, &proxy).ok());
    platform.Start();

    const load::LoadResult result =
        load::RunLoad(&edge_transport, MemcachedGetLoad(kClients));
    ReportLoad(state, result);
    ReportDslCounters(state, proxy.registry().stats());
    if (proxy.pool() != nullptr) {
      ReportPoolCounters(state, proxy.pool()->stats());
    }
    platform.Stop();
  }
}

void BM_DslAblation_Interp(benchmark::State& s) { DslArm(s, /*lower=*/false); }
void BM_DslAblation_Lowered(benchmark::State& s) { DslArm(s, /*lower=*/true); }
void BM_DslAblation_HandWritten(benchmark::State& s) { HandWrittenArm(s); }

void Args(benchmark::internal::Benchmark* b) {
  b->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_DslAblation_Interp)->Apply(Args);
BENCHMARK(BM_DslAblation_Lowered)->Apply(Args);
BENCHMARK(BM_DslAblation_HandWritten)->Apply(Args);

}  // namespace
}  // namespace flick::bench

BENCHMARK_MAIN();
