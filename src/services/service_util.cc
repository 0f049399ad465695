#include "services/service_util.h"

#include "services/backend_pool.h"
#include "services/graph_builder.h"

namespace flick::services {

void WireOptions::ApplyTo(BackendPoolConfig& cfg) const {
  cfg.conns_per_backend = conns_per_backend;
  cfg.max_pipeline_depth = max_pipeline_depth;
  cfg.flush_watermark_bytes = flush_watermark_bytes;
  cfg.io_shards = io_shards;
  cfg.request_deadline_ns = request_deadline_ns;
  cfg.breaker_failure_threshold = breaker_failure_threshold;
  cfg.breaker_open_ns = breaker_open_ns;
}

GraphBuilder& WireOptions::ApplyTo(GraphBuilder& b) const {
  b.FlushWatermark(flush_watermark_bytes);
  if (idle_timeout_ns != kInheritLifetimeNs) {
    b.IdleTimeout(idle_timeout_ns);
  }
  if (header_deadline_ns != kInheritLifetimeNs) {
    b.HeaderDeadline(header_deadline_ns);
  }
  return b;
}

GraphRegistry::~GraphRegistry() {
  // Graphs that never reached retirement stage 1 (platform stopped first)
  // still have their connections watched: an edge hook on such a conn
  // captures a Task* about to be freed with the graph, and a peer that
  // writes after the free fires the hook into dead memory. Unwatch here —
  // SetReadReadyHook(nullptr) blocks until any in-flight fire drains — so
  // no external writer can reach a graph task once destruction begins.
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& live : graphs_) {
    if (!live->unwatched) {
      for (Connection* conn : live->conns) {
        live->poller->UnwatchConnection(conn);
      }
    }
  }
}

void GraphRegistry::Adopt(std::unique_ptr<runtime::TaskGraph> graph,
                          std::vector<Connection*> conns, runtime::PlatformEnv& env,
                          std::function<void()> on_unwatch,
                          std::function<bool()> detach_ready) {
  graphs_adopted_.fetch_add(1, std::memory_order_relaxed);
  tasks_adopted_.fetch_add(graph->tasks().size(), std::memory_order_relaxed);
  channels_adopted_.fetch_add(graph->channel_count(), std::memory_order_relaxed);
  auto owned = std::make_unique<LiveGraph>();
  LiveGraph* live = owned.get();
  live->graph = std::move(graph);
  live->poller = env.poller;
  live->conns = std::move(conns);
  live->on_unwatch = std::move(on_unwatch);
  live->detach_ready = std::move(detach_ready);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live->index = graphs_.size();
    graphs_.push_back(std::move(owned));
    TrackPollerLocked(env.poller);
    TrackPoolsLocked(env);  // memory-plane pools for stats()
  }
  // Runs on the thread of the graph's last IO close (or here, if every IO
  // task already closed).
  live->graph->OnAllIoClosed([this, live] {
    live->poller->AddSweepPoll([this, live] { return RetireStep(*live); },
                               kRetireCheckMinNs, kRetireCheckMaxNs);
  });
}

bool GraphRegistry::RetireStep(LiveGraph& live) {
  // Runs only after the graph's IoCloseLatch fired: every IO task has
  // closed, and a closed task never reopens.
  if (!live.unwatched) {
    if (live.detach_ready != nullptr && !live.detach_ready()) {
      const uint64_t now = MonotonicNanos();
      if (live.detach_deadline_ns == 0) {
        live.detach_deadline_ns = now + kDetachReadyTimeoutNs;
      }
      if (now < live.detach_deadline_ns) {
        return false;  // stream still draining into the pool
      }
      detaches_timed_out_.fetch_add(1, std::memory_order_relaxed);
    }
    live.detach_ready = nullptr;
    for (Connection* conn : live.conns) {
      live.poller->UnwatchConnection(conn);
    }
    if (live.on_unwatch != nullptr) {
      live.on_unwatch();
      live.on_unwatch = nullptr;
      detaches_run_.fetch_add(1, std::memory_order_relaxed);
    }
    live.unwatched = true;
    graphs_unwatched_.fetch_add(1, std::memory_order_relaxed);
    return false;  // give in-flight notifications a check to settle
  }
  for (const auto& task : live.graph->tasks()) {
    if (task->sched_state.load(std::memory_order_acquire) !=
        runtime::Task::SchedState::kIdle) {
      return false;  // still draining; try next check
    }
  }
  std::unique_ptr<LiveGraph> dead;
  {
    // Fold + erase under one lock: a concurrent stats() must never see the
    // counters both folded in AND still live in graphs_.
    std::lock_guard<std::mutex> lock(mutex_);
    AccumulateBatchStats(*live.graph);
    const size_t index = live.index;
    dead = std::move(graphs_[index]);
    if (index + 1 != graphs_.size()) {
      graphs_[index] = std::move(graphs_.back());
      graphs_[index]->index = index;
    }
    graphs_.pop_back();
  }
  dead.reset();  // destroys the graph outside the lock
  graphs_retired_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace flick::services
