// HTTP load balancer example (§6.1 use case 1): ten backend web servers, the
// FLICK LB in front, an ApacheBench-style load generator driving it. Prints
// throughput and latency like the paper's Figure 4 rows.
#include <cstdio>

#include "load/backends.h"
#include "load/load_engine.h"
#include "net/sim_transport.h"
#include "runtime/platform.h"
#include "services/http_lb.h"

int main() {
  using namespace flick;

  SimNetwork net;
  SimTransport mtcp(&net, StackCostModel::Mtcp());       // middlebox stack
  SimTransport kernel(&net, StackCostModel::Kernel());   // clients + backends

  std::vector<std::unique_ptr<load::HttpBackend>> backends;
  std::vector<uint16_t> ports;
  for (int b = 0; b < 10; ++b) {
    const uint16_t port = static_cast<uint16_t>(8000 + b);
    backends.push_back(
        std::make_unique<load::HttpBackend>(&kernel, port, std::string(137, 'x')));
    FLICK_CHECK(backends.back()->Start().ok());
    ports.push_back(port);
  }

  runtime::PlatformConfig config;
  config.scheduler.num_workers = 4;
  config.scheduler.pin_threads = false;
  runtime::Platform platform(config, &mtcp);
  services::HttpLbService lb(ports);
  FLICK_CHECK(platform.RegisterProgram(80, &lb).ok());
  platform.Start();

  bool ok = true;
  for (const bool persistent : {true, false}) {
    load::LoadConfig cfg;
    cfg.port = 80;
    cfg.connections = 200;
    cfg.threads = 2;
    cfg.persistent = persistent;
    cfg.duration_ns = 500'000'000;
    const load::LoadResult result = load::RunLoad(&kernel, cfg);
    std::printf("%-14s  %8.0f req/s   mean %.2f ms   p99 %.2f ms   errors %llu\n",
                persistent ? "persistent" : "non-persistent", result.AchievedRps(),
                result.MeanMs(), result.P99Ms(),
                static_cast<unsigned long long>(result.errors));
    ok = ok && result.errors == 0 && result.completed > 0;
  }

  std::printf("LB forwarded %llu requests across %zu backends\n",
              static_cast<unsigned long long>(lb.requests()), backends.size());
  for (size_t b = 0; b < backends.size(); ++b) {
    std::printf("  backend %zu served %llu\n", b,
                static_cast<unsigned long long>(backends[b]->requests_served()));
  }

  platform.Stop();
  for (auto& b : backends) {
    b->Stop();
  }
  return ok ? 0 : 1;
}
