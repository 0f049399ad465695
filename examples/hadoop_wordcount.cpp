// Hadoop in-network aggregation example (§6.1 use case 3, Listing 3): eight
// mapper emitters stream wordcount pairs through the FLICK combiner tree; the
// reducer sink receives the (partially) aggregated stream. Prints the data
// reduction the combiner achieved.
#include <chrono>
#include <cstdio>
#include <thread>

#include "load/backends.h"
#include "load/mapper_load.h"
#include "net/sim_transport.h"
#include "runtime/platform.h"
#include "services/hadoop_agg.h"

int main() {
  using namespace flick;

  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Kernel());

  load::ReducerSink sink(&transport, 9900);
  FLICK_CHECK(sink.Start().ok());

  runtime::PlatformConfig config;
  config.scheduler.num_workers = 4;
  config.scheduler.pin_threads = false;
  runtime::Platform platform(config, &transport);
  services::HadoopAggService agg(/*expected_mappers=*/8, /*reducer_port=*/9900);
  FLICK_CHECK(platform.RegisterProgram(9800, &agg).ok());
  platform.Start();

  load::MapperLoadConfig cfg;
  cfg.port = 9800;
  cfg.mappers = 8;
  cfg.word_length = 8;
  cfg.vocabulary = 256;  // small vocabulary => high reduction ratio (§6.2)
  cfg.bytes_per_mapper = 1 * 1024 * 1024;
  const load::MapperResult sent = load::RunMapperLoad(&transport, cfg);

  // Wait (bounded) for the combiner tree to drain and retire, and for the
  // reducer to have counted every word the mappers sent.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((agg.live_graphs() != 0 || sink.counts_received() < sent.counts_sent) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::printf("mappers sent    : %llu pairs (%llu bytes) at %.0f Mb/s\n",
              static_cast<unsigned long long>(sent.pairs_sent),
              static_cast<unsigned long long>(sent.bytes_sent), sent.ThroughputMbps());
  std::printf("reducer received: %llu pairs (%llu bytes)\n",
              static_cast<unsigned long long>(sink.pairs_received()),
              static_cast<unsigned long long>(sink.bytes_received()));
  const double reduction =
      1.0 - static_cast<double>(sink.pairs_received()) /
                static_cast<double>(sent.pairs_sent);
  std::printf("combiner reduced the pair stream by %.1f%%\n", reduction * 100.0);
  const bool ok = sent.pairs_sent > 0 && sink.counts_received() == sent.counts_sent;
  if (!ok) {
    std::printf("FAILED: reducer counted %llu of %llu words\n",
                static_cast<unsigned long long>(sink.counts_received()),
                static_cast<unsigned long long>(sent.counts_sent));
  }

  platform.Stop();
  sink.Stop();
  return ok ? 0 : 1;
}
