// E1 (§6.3, static web server): throughput/latency of the FLICK static web
// server vs the Apache-like and Nginx-like baselines, over 100..1600
// concurrent connections, persistent and non-persistent.
//
// Paper reference points (persistent): FLICK-kernel 306k req/s, FLICK-mTCP
// 380k, Apache 159k, Nginx 217k. Non-persistent: 45k / 193k / 35k / 44k.
// Expected shape here: FLICK > Nginx-like > Apache-like on persistent;
// FLICK-mTCP dominates non-persistent while FLICK-kernel converges towards
// the baselines (connection set-up bound).
#include "bench/bench_common.h"

#include "baseline/baseline_proxies.h"
#include "services/static_http.h"

namespace flick::bench {
namespace {

const std::string& Body() {
  static const std::string* kBody = new std::string(137, 'x');  // §6.3: 137 B payload
  return *kBody;
}

void FlickWebServer(benchmark::State& state, StackCostModel middlebox_model,
                    bool persistent) {
  const int concurrency = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SimNetwork net(kSimRingBytes);
    SimTransport server_transport(&net, middlebox_model);
    SimTransport client_transport(&net, StackCostModel::Kernel());

    runtime::Platform platform(MakePlatformConfig(2), &server_transport);
    services::StaticHttpService service(Body());
    FLICK_CHECK(platform.RegisterProgram(80, &service).ok());
    platform.Start();

    const load::LoadResult result =
        load::RunLoad(&client_transport, HttpGetLoad(concurrency, persistent));
    ReportLoad(state, result);
    platform.Stop();
  }
}

void BaselineWebServer(benchmark::State& state, bool apache_like, bool persistent) {
  const int concurrency = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SimNetwork net(kSimRingBytes);
    SimTransport server_transport(&net, StackCostModel::Kernel());
    SimTransport client_transport(&net, StackCostModel::Kernel());

    baseline::ProxyConfig cfg;
    cfg.listen_port = 80;
    cfg.static_body = Body();
    load::LoadResult result;
    const load::LoadConfig load_cfg = HttpGetLoad(concurrency, persistent);
    if (apache_like) {
      cfg.threads = 16;  // worker pool; excess connections queue
      baseline::ThreadedProxy proxy(&server_transport, cfg);
      FLICK_CHECK(proxy.Start().ok());
      result = load::RunLoad(&client_transport, load_cfg);
      proxy.Stop();
    } else {
      cfg.threads = 4;
      baseline::EventProxy proxy(&server_transport, cfg);
      FLICK_CHECK(proxy.Start().ok());
      result = load::RunLoad(&client_transport, load_cfg);
      proxy.Stop();
    }
    ReportLoad(state, result);
  }
}

void BM_WebSrv_Flick_Persistent(benchmark::State& s) {
  FlickWebServer(s, StackCostModel::Kernel(), true);
}
void BM_WebSrv_FlickMtcp_Persistent(benchmark::State& s) {
  FlickWebServer(s, StackCostModel::Mtcp(), true);
}
void BM_WebSrv_ApacheLike_Persistent(benchmark::State& s) { BaselineWebServer(s, true, true); }
void BM_WebSrv_NginxLike_Persistent(benchmark::State& s) { BaselineWebServer(s, false, true); }
void BM_WebSrv_Flick_NonPersistent(benchmark::State& s) {
  FlickWebServer(s, StackCostModel::Kernel(), false);
}
void BM_WebSrv_FlickMtcp_NonPersistent(benchmark::State& s) {
  FlickWebServer(s, StackCostModel::Mtcp(), false);
}
void BM_WebSrv_ApacheLike_NonPersistent(benchmark::State& s) {
  BaselineWebServer(s, true, false);
}
void BM_WebSrv_NginxLike_NonPersistent(benchmark::State& s) {
  BaselineWebServer(s, false, false);
}

void Args(benchmark::internal::Benchmark* b) {
  b->Arg(100)->Arg(200)->Arg(400)->Arg(800)->Arg(1600)->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_WebSrv_Flick_Persistent)->Apply(Args);
BENCHMARK(BM_WebSrv_FlickMtcp_Persistent)->Apply(Args);
BENCHMARK(BM_WebSrv_ApacheLike_Persistent)->Apply(Args);
BENCHMARK(BM_WebSrv_NginxLike_Persistent)->Apply(Args);
BENCHMARK(BM_WebSrv_Flick_NonPersistent)->Apply(Args);
BENCHMARK(BM_WebSrv_FlickMtcp_NonPersistent)->Apply(Args);
BENCHMARK(BM_WebSrv_ApacheLike_NonPersistent)->Apply(Args);
BENCHMARK(BM_WebSrv_NginxLike_NonPersistent)->Apply(Args);

}  // namespace
}  // namespace flick::bench

BENCHMARK_MAIN();
