// Hadoop data aggregator (§6.1, Figure 3c; Listing 3).
//
// One task graph per reducer: k mapper connections feed input tasks
// (deserialising the kv stream); a binary tree of foldt MergeTasks combines
// values of equal keys pairwise ("Compute tasks combine the data with each
// compute task taking two input streams and producing one output"); the root
// serialises back to the Hadoop wire format towards the reducer.
//
// The combine is a partial aggregation (a Hadoop combiner): counts of
// adjacent equal keys are merged, totals are always preserved. Each mapper's
// input task already folds its sorted runs (GraphBuilder::MergeTree installs
// the fold on the leaves), so a run enters the tree as one message, and a
// batch of one mapper — no MergeTask at all — is combined too.
//
// The reducer leg defaults to a pooled EXCLUSIVE lease (BackendPool in
// non-pipelined streaming mode): the reducer wire persists across
// aggregation graphs — successive mapper batches reuse it instead of
// redialling — while exclusivity keeps the long-lived stream from
// interleaving with any other lease's traffic. Retirement waits for the
// stream's EOF to reach the pool, so no combined pair is dropped. The
// paper-shape dedicated dial remains available via Options.
#ifndef FLICK_SERVICES_HADOOP_AGG_H_
#define FLICK_SERVICES_HADOOP_AGG_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/platform.h"
#include "services/backend_pool.h"
#include "services/service_util.h"

namespace flick::services {

class HadoopAggService : public runtime::ServiceProgram {
 public:
  struct Options {
    // The shared wire-policy knobs — see services::WireOptions. Here
    // wire.conns_per_backend is the number of pool slots to the reducer ==
    // aggregation graphs that may stream concurrently (each claims one
    // exclusively); wire.mode selects the pooled exclusive lease (default)
    // vs a dedicated dialled reducer connection per graph (paper shape).
    // Mapper legs are ingest-only, so the lifetime windows govern stalled
    // mapper streams.
    WireOptions wire;
  };

  // Builds the aggregation graph once `expected_mappers` connections arrived;
  // the combined stream is written to `reducer_port`.
  HadoopAggService(int expected_mappers, uint16_t reducer_port)
      : HadoopAggService(expected_mappers, reducer_port, Options{}) {}
  HadoopAggService(int expected_mappers, uint16_t reducer_port, Options options);

  const char* name() const override { return "hadoop-agg"; }
  void OnConnection(std::unique_ptr<Connection> conn, runtime::PlatformEnv& env) override;

  size_t live_graphs() const { return registry_.live_graphs(); }
  const GraphRegistry& registry() const { return registry_; }

  // Null in kPerClient mode.
  const BackendPool* pool() const { return pool_.get(); }

  // Batches that fell back to a dedicated dialled reducer leg because every
  // pool slot was exclusively held (concurrent batches > reducer_conns).
  uint64_t dedicated_fallbacks() const {
    return dedicated_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  void BuildGraph(runtime::PlatformEnv& env);

  const int expected_mappers_;
  const uint16_t reducer_port_;
  const Options options_;
  std::unique_ptr<BackendPool> pool_;
  std::atomic<uint64_t> dedicated_fallbacks_{0};
  std::mutex mutex_;
  std::vector<std::unique_ptr<Connection>> pending_;
  GraphRegistry registry_;
};

}  // namespace flick::services

#endif  // FLICK_SERVICES_HADOOP_AGG_H_
