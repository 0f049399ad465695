#include "services/hadoop_agg.h"

#include "proto/hadoop.h"
#include "services/graph_builder.h"

namespace flick::services {
namespace {

int OrderByKey(const runtime::Msg& a, const runtime::Msg& b) {
  const auto ka = a.gmsg.GetBytes(proto::HadoopKv::kKey);
  const auto kb = b.gmsg.GetBytes(proto::HadoopKv::kKey);
  const int cmp = ka.compare(kb);
  return cmp < 0 ? -1 : (cmp == 0 ? 0 : 1);
}

void CombineByAdding(runtime::Msg& into, const runtime::Msg& from) {
  const proto::CountText sum =
      proto::CombineCounts(into.gmsg.GetBytes(proto::HadoopKv::kValue),
                           from.gmsg.GetBytes(proto::HadoopKv::kValue));
  into.gmsg.SetBytes(proto::HadoopKv::kValue, sum.view());
}

}  // namespace

HadoopAggService::HadoopAggService(int expected_mappers, uint16_t reducer_port,
                                   Options options)
    : expected_mappers_(expected_mappers),
      reducer_port_(reducer_port),
      options_(options) {
  if (options_.wire.mode == BackendMode::kPooled) {
    const grammar::Unit* unit = &proto::HadoopKvUnit();
    BackendPoolConfig cfg;
    cfg.ports = {reducer_port_};
    options_.wire.ApplyTo(cfg);
    cfg.make_serializer = [unit] {
      return std::make_unique<runtime::GrammarSerializer>(unit);
    };
    // The reducer never answers; the codec is required by the pool contract
    // and would only run if the peer (unexpectedly) wrote back.
    cfg.make_deserializer = [unit] {
      return std::make_unique<runtime::GrammarDeserializer>(unit);
    };
    pool_ = std::make_unique<BackendPool>(std::move(cfg));
  }
}

void HadoopAggService::OnConnection(std::unique_ptr<Connection> conn,
                                    runtime::PlatformEnv& env) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(std::move(conn));
    if (static_cast<int>(pending_.size()) < expected_mappers_) {
      return;
    }
  }
  BuildGraph(env);
}

void HadoopAggService::BuildGraph(runtime::PlatformEnv& env) {
  std::vector<std::unique_ptr<Connection>> mappers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    mappers.swap(pending_);
  }

  // Claim the reducer slot BEFORE wiring anything: if every pool slot is
  // busy (more concurrent batches than wire.conns_per_backend), this batch
  // falls back
  // to a dedicated dialled leg instead of being dropped — slot pressure must
  // never lose data the mappers already sent.
  PoolLease reducer_lease;
  if (pool_ != nullptr && pool_->EnsureStarted(env).ok()) {
    auto lease = pool_->AcquireExclusive(/*backend_index=*/0, env.io_shard);
    if (lease.ok()) {
      reducer_lease = std::move(lease).value();
    }
  }
  if (pool_ != nullptr && !reducer_lease.valid()) {
    dedicated_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }

  const grammar::Unit* unit = &proto::HadoopKvUnit();
  GraphBuilder b("hadoop-agg", env);
  options_.wire.ApplyTo(b.DefaultCapacity(256));

  // Leaves: one input task per mapper connection. If the reducer leg below
  // fails, Launch() closes every adopted mapper connection.
  std::vector<NodeRef> streams;
  for (size_t m = 0; m < mappers.size(); ++m) {
    auto mapper = b.Adopt(std::move(mappers[m]));
    streams.push_back(b.Source("mapper-in-" + std::to_string(m), mapper,
                               std::make_unique<runtime::GrammarDeserializer>(unit)));
  }

  // Binary merge tree ("combining elements in a pair-wise manner until only
  // the result remains", §4.3), rooted at the reducer leg.
  auto root = b.MergeTree("merge", std::move(streams), OrderByKey, CombineByAdding);
  if (reducer_lease.valid()) {
    // Streaming sink on an exclusive lease: the reducer wire outlives this
    // graph and the next batch's graph claims it again without a dial.
    b.ExclusivePoolLeg(*pool_, std::move(reducer_lease), /*backend_index=*/0)
        .From(root);
  } else {
    auto reducer = b.Connect(reducer_port_);
    b.Sink("reducer-out", reducer, std::make_unique<runtime::GrammarSerializer>(unit))
        .From(root);
  }

  if (const Status launched = b.Launch(registry_); !launched.ok()) {
    // Launch already closed every leg (client conn included) and returned
    // any pool leases; all that is left is to account for the failure.
    registry_.CountLaunchFailure();
  }
}

}  // namespace flick::services
