#include "services/graph_builder.h"

#include <utility>

#include "runtime/io_tasks.h"
#include "runtime/task_graph.h"

namespace flick::services {
namespace {

// Deep copy for Tee duplication: pooled Msg objects retain internal buffer
// capacity, so steady-state copies do not allocate.
void CopyMsg(runtime::Msg& dst, const runtime::Msg& src) {
  dst.kind = src.kind;
  dst.conn_id = src.conn_id;
  dst.route = src.route;
  switch (src.kind) {
    case runtime::Msg::Kind::kGrammar:
      dst.gmsg = src.gmsg;
      break;
    case runtime::Msg::Kind::kHttp:
      dst.http = src.http;
      break;
    case runtime::Msg::Kind::kBytes:
      dst.bytes = src.bytes;
      break;
    case runtime::Msg::Kind::kEof:
      break;
    case runtime::Msg::Kind::kError:
      dst.bytes = src.bytes;  // reason string
      break;
  }
}

// All-or-nothing duplication: either every output accepts a copy or the
// message is redelivered, so a partially full fan-out never drops or
// double-sends a message.
runtime::HandleResult TeeHandler(runtime::Msg& msg, size_t /*input_index*/,
                                 runtime::EmitContext& emit) {
  if (!emit.CanEmitAll()) {
    return runtime::HandleResult::kBlocked;
  }
  for (size_t i = 0; i < emit.output_count(); ++i) {
    runtime::MsgRef copy = emit.NewMsg();
    CopyMsg(*copy, msg);
    emit.Emit(i, std::move(copy));
  }
  return runtime::HandleResult::kConsumed;
}

}  // namespace

NodeRef NodeRef::From(NodeRef upstream, size_t capacity) {
  if (builder_ == nullptr || !upstream.valid()) {
    return *this;
  }
  if (upstream.builder_ != builder_) {
    builder_->Poison(InvalidArgument("edge spans two builders"));
    return *this;
  }
  builder_->AddEdge(upstream.index_, index_, capacity);
  return *this;
}

GraphBuilder::GraphBuilder(std::string name, runtime::PlatformEnv& env)
    : name_(std::move(name)), env_(env) {}

GraphBuilder::~GraphBuilder() { ReleaseAllLegs(); }

GraphBuilder& GraphBuilder::DefaultCapacity(size_t capacity) {
  if (capacity > 0) {
    default_capacity_ = capacity;
  }
  return *this;
}

GraphBuilder& GraphBuilder::FlushWatermark(size_t bytes) {
  flush_watermark_ = bytes;
  return *this;
}

GraphBuilder& GraphBuilder::IdleTimeout(uint64_t ns) {
  idle_timeout_override_ = ns;
  return *this;
}

GraphBuilder& GraphBuilder::HeaderDeadline(uint64_t ns) {
  header_deadline_override_ = ns;
  return *this;
}

ConnRef GraphBuilder::Adopt(std::unique_ptr<Connection> conn) {
  if (conn == nullptr) {
    Poison(InvalidArgument("Adopt: null connection"));
    return ConnRef();
  }
  // Recorded even on a poisoned builder so cleanup closes it.
  ConnSpec spec;
  spec.raw = conn.get();
  spec.owned = std::move(conn);
  conns_.push_back(std::move(spec));
  return ConnRef(conns_.size() - 1);
}

ConnRef GraphBuilder::Connect(uint16_t port) {
  if (!status_.ok()) {
    return ConnRef();  // already failing: do not dial further legs
  }
  auto conn = env_.transport->Connect(port);
  if (!conn.ok()) {
    Poison(conn.status());
    return ConnRef();
  }
  const ConnRef ref = Adopt(std::move(conn).value());
  if (ref.valid()) {
    conns_[ref.index_].client = false;  // backend wire: no lifetime deadlines
  }
  return ref;
}

NodeRef GraphBuilder::Source(std::string name, ConnRef conn,
                             std::unique_ptr<runtime::Deserializer> codec,
                             size_t capacity) {
  if (!status_.ok()) {
    return NodeRef();
  }
  if (!conn.valid() || codec == nullptr) {
    Poison(InvalidArgument("Source '" + name + "': invalid connection or codec"));
    return NodeRef();
  }
  if (conns_[conn.index_].source_node != static_cast<size_t>(-1)) {
    Poison(InvalidArgument("Source '" + name + "': connection already has a reader"));
    return NodeRef();
  }
  NodeSpec spec;
  spec.kind = NodeKind::kSource;
  spec.name = std::move(name);
  spec.conn = conn.index_;
  spec.deserializer = std::move(codec);
  spec.preferred_capacity = capacity;
  NodeRef ref = AddNode(std::move(spec));
  conns_[conn.index_].source_node = ref.index_;
  conns_[conn.index_].referenced = true;
  return ref;
}

NodeRef GraphBuilder::Stage(std::string name, runtime::ComputeTask::Handler handler) {
  if (!status_.ok()) {
    return NodeRef();
  }
  if (handler == nullptr) {
    Poison(InvalidArgument("Stage '" + name + "': null handler"));
    return NodeRef();
  }
  NodeSpec spec;
  spec.kind = NodeKind::kStage;
  spec.name = std::move(name);
  spec.handler = std::move(handler);
  return AddNode(std::move(spec));
}

NodeRef GraphBuilder::Sink(std::string name, ConnRef conn,
                           std::unique_ptr<runtime::Serializer> codec) {
  if (!status_.ok()) {
    return NodeRef();
  }
  if (!conn.valid() || codec == nullptr) {
    Poison(InvalidArgument("Sink '" + name + "': invalid connection or codec"));
    return NodeRef();
  }
  // One writer per wire: a second OutputTask would interleave partial writes
  // on the same connection.
  if (conns_[conn.index_].sink_node != static_cast<size_t>(-1)) {
    Poison(InvalidArgument("Sink '" + name + "': connection already has a writer"));
    return NodeRef();
  }
  NodeSpec spec;
  spec.kind = NodeKind::kSink;
  spec.name = std::move(name);
  spec.conn = conn.index_;
  spec.serializer = std::move(codec);
  NodeRef ref = AddNode(std::move(spec));
  conns_[conn.index_].sink_node = ref.index_;
  conns_[conn.index_].referenced = true;
  return ref;
}

NodeRef GraphBuilder::Merge(std::string name, runtime::OrderFn order,
                            runtime::CombineFn combine, size_t capacity) {
  if (!status_.ok()) {
    return NodeRef();
  }
  if (order == nullptr || combine == nullptr) {
    Poison(InvalidArgument("Merge '" + name + "': null order/combine"));
    return NodeRef();
  }
  NodeSpec spec;
  spec.kind = NodeKind::kMerge;
  spec.name = std::move(name);
  spec.order = std::move(order);
  spec.combine = std::move(combine);
  spec.preferred_capacity = capacity;
  return AddNode(std::move(spec));
}

NodeRef GraphBuilder::Tee(std::string name) {
  if (!status_.ok()) {
    return NodeRef();
  }
  NodeSpec spec;
  spec.kind = NodeKind::kTee;
  spec.name = std::move(name);
  return AddNode(std::move(spec));
}

size_t GraphBuilder::PoolUseIndex(BackendPool& pool) {
  for (size_t i = 0; i < pool_uses_.size(); ++i) {
    // Exclusive legs own their lease; only the shared lease is reused.
    if (pool_uses_[i].pool == &pool && !pool_uses_[i].lease.exclusive()) {
      return i;
    }
  }
  // Lease from the launching shard's stripe: the whole leg — graph tasks,
  // watches, pooled wire — stays on one shard unless the stripe is exhausted.
  auto lease = pool.Acquire(env_.io_shard);
  if (!lease.ok()) {
    Poison(lease.status());
    return static_cast<size_t>(-1);
  }
  pool_uses_.push_back(PoolUse{&pool, std::move(lease).value()});
  return pool_uses_.size() - 1;
}

GraphBuilder::PooledLeg GraphBuilder::PoolLeg(BackendPool& pool, size_t backend_index,
                                              size_t capacity) {
  if (!status_.ok()) {
    return PooledLeg{};
  }
  if (Status s = pool.EnsureStarted(env_); !s.ok()) {
    Poison(std::move(s));
    return PooledLeg{};
  }
  if (backend_index >= pool.backend_count()) {
    Poison(InvalidArgument("PoolLeg: backend index out of range"));
    return PooledLeg{};
  }
  const size_t use = PoolUseIndex(pool);
  if (!status_.ok()) {
    return PooledLeg{};
  }
  // Appended rather than `"-" + std::to_string(...)`: gcc 12 at -O3 reads
  // that operator+'s inlined insert as an overlapping memcpy (-Wrestrict).
  const std::string suffix = std::string("-").append(std::to_string(backend_index));
  PooledLeg leg;
  {
    NodeSpec spec;
    spec.kind = NodeKind::kPoolSink;
    spec.name = "pool-out" + suffix;
    spec.preferred_capacity = capacity;
    leg.sink = AddNode(std::move(spec));
  }
  {
    NodeSpec spec;
    spec.kind = NodeKind::kPoolSource;
    spec.name = "pool-in" + suffix;
    spec.preferred_capacity = capacity;
    leg.source = AddNode(std::move(spec));
  }
  pool_bindings_.push_back(
      PoolBinding{use, backend_index, leg.sink.index_, leg.source.index_});
  return leg;
}

NodeRef GraphBuilder::ExclusivePoolLeg(BackendPool& pool, size_t backend_index,
                                       size_t capacity) {
  if (!status_.ok()) {
    return NodeRef();
  }
  if (Status s = pool.EnsureStarted(env_); !s.ok()) {
    Poison(std::move(s));
    return NodeRef();
  }
  if (backend_index >= pool.backend_count()) {
    Poison(InvalidArgument("ExclusivePoolLeg: backend index out of range"));
    return NodeRef();
  }
  // Own lease per exclusive leg — never shared with the builder's pooled
  // fan-out lease, so the claimed slot is this stream's alone.
  auto lease = pool.AcquireExclusive(backend_index, env_.io_shard);
  if (!lease.ok()) {
    Poison(lease.status());
    return NodeRef();
  }
  return ExclusivePoolLeg(pool, std::move(lease).value(), backend_index, capacity);
}

NodeRef GraphBuilder::ExclusivePoolLeg(BackendPool& pool, PoolLease lease,
                                       size_t backend_index, size_t capacity) {
  if (!status_.ok()) {
    pool.Release(lease);  // poisoned builders must not strand a caller's lease
    return NodeRef();
  }
  if (!lease.valid() || !lease.exclusive() || backend_index >= pool.backend_count()) {
    pool.Release(lease);
    Poison(InvalidArgument("ExclusivePoolLeg: invalid lease or backend index"));
    return NodeRef();
  }
  pool_uses_.push_back(PoolUse{&pool, std::move(lease)});
  NodeSpec spec;
  spec.kind = NodeKind::kPoolSink;
  spec.name = "pool-stream-out-" + std::to_string(backend_index);
  spec.preferred_capacity = capacity;
  NodeRef sink = AddNode(std::move(spec));
  pool_bindings_.push_back(PoolBinding{pool_uses_.size() - 1, backend_index,
                                       sink.index_, PoolBinding::kInvalid});
  return sink;
}

std::vector<GraphBuilder::PooledLeg> GraphBuilder::FanOutPooled(BackendPool& pool,
                                                                size_t capacity) {
  std::vector<PooledLeg> legs;
  if (!status_.ok()) {
    return legs;
  }
  if (Status s = pool.EnsureStarted(env_); !s.ok()) {
    Poison(std::move(s));
    return legs;
  }
  legs.reserve(pool.backend_count());
  for (size_t i = 0; i < pool.backend_count(); ++i) {
    legs.push_back(PoolLeg(pool, i, capacity));
    if (!status_.ok()) {
      break;
    }
  }
  return legs;
}

std::vector<GraphBuilder::Leg> GraphBuilder::FanOut(
    const std::vector<uint16_t>& ports, const std::string& base,
    const SerializerFactory& make_serializer,
    const DeserializerFactory& make_deserializer, size_t capacity) {
  std::vector<Leg> legs;
  legs.reserve(ports.size());
  for (size_t i = 0; i < ports.size(); ++i) {
    Leg leg;
    leg.conn = Connect(ports[i]);
    if (!status_.ok()) {
      // A failed dial poisons the builder; Launch() closes the i established
      // legs (the memcached k-th-connect leak the hand-rolled wiring had).
      legs.push_back(leg);
      continue;
    }
    const std::string suffix = std::string("-").append(std::to_string(i));
    leg.sink = Sink(base + "-out" + suffix, leg.conn, make_serializer());
    leg.source = Source(base + "-in" + suffix, leg.conn, make_deserializer(), capacity);
    if (leg.sink.valid() && capacity > 0) {
      nodes_[leg.sink.index_].preferred_capacity = capacity;
    }
    legs.push_back(std::move(leg));
  }
  return legs;
}

NodeRef GraphBuilder::MergeTree(const std::string& base, std::vector<NodeRef> streams,
                                runtime::OrderFn order,
                                runtime::CombineFn combine,
                                size_t capacity) {
  if (!status_.ok()) {
    return NodeRef();
  }
  if (streams.empty()) {
    Poison(InvalidArgument("MergeTree '" + base + "': no input streams"));
    return NodeRef();
  }
  for (const NodeRef& s : streams) {
    if (!s.valid() || s.builder_ != this) {
      Poison(InvalidArgument("MergeTree '" + base + "': invalid input stream"));
      return NodeRef();
    }
  }
  // Leaf sources fold their own runs, so a sorted stream's run crosses its
  // first channel as one message. With one stream this is the whole tree.
  for (const NodeRef& s : streams) {
    NodeSpec& leaf = nodes_[s.index_];
    if (leaf.kind == NodeKind::kSource) {
      leaf.order = order;
      leaf.combine = combine;
    }
  }
  int merge_id = 0;
  while (streams.size() > 1) {
    std::vector<NodeRef> next;
    for (size_t i = 0; i + 1 < streams.size(); i += 2) {
      NodeRef m = Merge(base + "-" + std::to_string(merge_id++), order, combine, capacity);
      m.From(streams[i]).From(streams[i + 1]);
      next.push_back(m);
    }
    if (streams.size() % 2 == 1) {
      next.push_back(streams.back());  // odd stream carries to the next level
    }
    streams = std::move(next);
  }
  return streams.front();
}

NodeRef GraphBuilder::AddNode(NodeSpec spec) {
  nodes_.push_back(std::move(spec));
  return NodeRef(this, nodes_.size() - 1);
}

void GraphBuilder::AddEdge(size_t from, size_t to, size_t capacity) {
  edges_.push_back(EdgeSpec{from, to, capacity});
  const size_t index = edges_.size() - 1;
  nodes_[from].out_edges.push_back(index);
  nodes_[to].in_edges.push_back(index);
}

void GraphBuilder::Poison(Status status) {
  if (status_.ok()) {
    status_ = std::move(status);
  }
}

void GraphBuilder::ReleaseAllLegs() {
  for (ConnSpec& conn : conns_) {
    if (conn.owned != nullptr) {
      conn.owned->Close();
      conn.owned.reset();
    }
  }
  // Pooled legs are returned, not closed: the wires belong to the pool and
  // keep serving other graphs.
  for (PoolUse& use : pool_uses_) {
    use.pool->Release(use.lease);
  }
  pool_uses_.clear();
}

Status GraphBuilder::Validate() const {
  for (const NodeSpec& node : nodes_) {
    const size_t in = node.in_edges.size();
    const size_t out = node.out_edges.size();
    switch (node.kind) {
      case NodeKind::kSource:
        if (in != 0 || out != 1) {
          return InvalidArgument("source '" + node.name + "' needs exactly one consumer");
        }
        break;
      case NodeKind::kSink:
        if (in != 1 || out != 0) {
          return InvalidArgument("sink '" + node.name + "' needs exactly one producer");
        }
        break;
      case NodeKind::kMerge:
        if (in != 2 || out != 1) {
          return InvalidArgument("merge '" + node.name + "' needs two inputs, one output");
        }
        break;
      case NodeKind::kStage:
        // A stage with no outputs would hand its handler an empty emit
        // vector, turning the first Emit(0, ...) into an out-of-bounds
        // access at run time; reject it here instead.
        if (in == 0 || out == 0) {
          return InvalidArgument("stage '" + node.name +
                                 "' needs >=1 inputs and >=1 outputs");
        }
        break;
      case NodeKind::kTee:
        if (in != 1 || out == 0) {
          return InvalidArgument("tee '" + node.name + "' needs one input and >=1 outputs");
        }
        break;
      case NodeKind::kPoolSink:
        if (in != 1 || out != 0) {
          return InvalidArgument("pool sink '" + node.name + "' needs exactly one producer");
        }
        break;
      case NodeKind::kPoolSource:
        if (in != 0 || out != 1) {
          return InvalidArgument("pool source '" + node.name +
                                 "' needs exactly one consumer");
        }
        break;
    }
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (!conns_[i].referenced) {
      return InvalidArgument("connection leg " + std::to_string(i) +
                             " has no source or sink");
    }
  }
  return OkStatus();
}

size_t GraphBuilder::ResolveCapacity(const EdgeSpec& edge) const {
  if (edge.capacity > 0) {
    return edge.capacity;
  }
  if (nodes_[edge.from].preferred_capacity > 0) {
    return nodes_[edge.from].preferred_capacity;
  }
  if (nodes_[edge.to].preferred_capacity > 0) {
    return nodes_[edge.to].preferred_capacity;
  }
  return default_capacity_;
}

std::unique_ptr<Connection> GraphBuilder::TakeConn(size_t conn_index) {
  ConnSpec& conn = conns_[conn_index];
  if (conn.owned != nullptr) {
    return std::move(conn.owned);
  }
  return std::make_unique<SharedConn>(conn.raw);
}

Status GraphBuilder::Launch(GraphRegistry& registry) {
  if (launched_) {
    return FailedPrecondition("Launch called twice");
  }
  launched_ = true;
  if (!status_.ok()) {
    ReleaseAllLegs();
    return status_;
  }
  if (Status v = Validate(); !v.ok()) {
    status_ = v;
    ReleaseAllLegs();
    return v;
  }

  auto graph = std::make_unique<runtime::TaskGraph>(name_);

  std::vector<runtime::Channel*> channels(edges_.size());
  for (size_t i = 0; i < edges_.size(); ++i) {
    channels[i] = graph->AddChannel(ResolveCapacity(edges_[i]));
  }

  // Declaration order doubles as construction order, so the first node
  // referencing a leg receives the owning Connection.
  for (NodeSpec& node : nodes_) {
    switch (node.kind) {
      case NodeKind::kSource: {
        auto* task = graph->AddTask<runtime::InputTask>(
            node.name, TakeConn(node.conn), std::move(node.deserializer),
            channels[node.out_edges[0]], env_.msgs, env_.buffers);
        if (node.order != nullptr) {
          task->set_run_fold(
              runtime::RunFold(std::move(node.order), std::move(node.combine)));
        }
        conns_[node.conn].source_task = task;
        ++stats_.sources;
        break;
      }
      case NodeKind::kStage:
      case NodeKind::kTee: {
        runtime::ComputeTask::Handler handler =
            node.kind == NodeKind::kTee ? TeeHandler : std::move(node.handler);
        auto* task = graph->AddTask<runtime::ComputeTask>(node.name, std::move(handler),
                                                          env_.msgs);
        for (size_t e : node.in_edges) {
          task->AddInput(channels[e], env_.scheduler);
        }
        for (size_t e : node.out_edges) {
          task->AddOutput(channels[e]);
        }
        ++(node.kind == NodeKind::kTee ? stats_.tees : stats_.stages);
        break;
      }
      case NodeKind::kSink: {
        runtime::Channel* in = channels[node.in_edges[0]];
        auto* task = graph->AddTask<runtime::OutputTask>(
            node.name, TakeConn(node.conn), std::move(node.serializer), in,
            env_.buffers);
        task->set_flush_watermark(flush_watermark_);
        in->BindConsumer(task, env_.scheduler);
        ++stats_.sinks;
        break;
      }
      case NodeKind::kMerge: {
        auto* task = graph->AddTask<runtime::MergeTask>(node.name, std::move(node.order),
                                                        std::move(node.combine));
        task->BindInputs(channels[node.in_edges[0]], channels[node.in_edges[1]],
                         env_.scheduler);
        task->BindOutput(channels[node.out_edges[0]]);
        ++stats_.merges;
        break;
      }
      case NodeKind::kPoolSink:
        // No task: the edge channel is consumed by the pool's connection
        // task, bound below once all graph tasks exist.
        ++stats_.pooled_legs;
        break;
      case NodeKind::kPoolSource:
        break;  // produced by the pool's connection task, bound below
    }
  }

  // Pin every graph task to the accepting shard's worker group: the graph's
  // buffers come from that shard's pool slice and its watches live on that
  // shard's poller, so its compute must stay on the matching cores too
  // (share-nothing column). One group (unsharded env) makes this a no-op.
  for (const auto& task : graph->tasks()) {
    task->shard_affinity = static_cast<int>(env_.io_shard);
  }

  stats_.tasks = graph->tasks().size();
  stats_.channels = graph->channel_count();
  stats_.connections = conns_.size();
  stats_.flush_watermark = flush_watermark_;
  stats_.io_shard = env_.io_shard;

  // Bind pooled legs before IO activation: once a graph task is notified it
  // may push requests, and the pool must already be the consumer. Streaming
  // legs (no source node) attach without a reply channel.
  for (const PoolBinding& binding : pool_bindings_) {
    PoolUse& use = pool_uses_[binding.pool_use];
    runtime::Channel* requests = channels[nodes_[binding.sink_node].in_edges[0]];
    runtime::Channel* replies =
        binding.source_node == PoolBinding::kInvalid
            ? nullptr
            : channels[nodes_[binding.source_node].out_edges[0]];
    if (replies == nullptr) {
      ++stats_.exclusive_legs;
    }
    use.pool->Attach(use.lease, binding.backend_index, requests, replies);
  }

  // Connection lifetime plane: platform policy with per-builder overrides,
  // armed on every CLIENT leg's input task (backend wires are the service's
  // own and must not be idle-closed under it). Close reasons count into the
  // registry the graph retires through.
  runtime::ConnLifetimeConfig lifetime;
  if (env_.lifetime != nullptr) {
    lifetime = *env_.lifetime;
  }
  if (idle_timeout_override_ != kInheritLifetime) {
    lifetime.idle_timeout_ns = idle_timeout_override_;
  }
  if (header_deadline_override_ != kInheritLifetime) {
    lifetime.header_deadline_ns = header_deadline_override_;
  }
  if (lifetime.deadlines_enabled()) {
    for (const ConnSpec& conn : conns_) {
      if (conn.client && conn.source_task != nullptr) {
        conn.source_task->EnableLifetime(&env_.poller->wheel(), env_.scheduler,
                                         lifetime,
                                         &registry.lifetime_counters());
      }
    }
  }

  std::vector<runtime::IoBinding> bindings;
  std::vector<Connection*> watched;
  for (const ConnSpec& conn : conns_) {
    if (conn.source_task != nullptr) {
      bindings.push_back(runtime::IoBinding{conn.raw, conn.source_task});
      watched.push_back(conn.raw);
    }
  }
  stats_.watched = watched.size();

  // Lease ownership moves to the registry: the on_unwatch hook returns every
  // lease at retirement stage 1, severing the pool's hold on graph channels
  // before destruction becomes possible. Stage 1 is additionally gated on the
  // pool having consumed each leg's EOF (the channel's last message), so a
  // lease is never returned while requests the graph committed still sit in
  // its channels — the EOF-mid-batch case flushes instead of dropping.
  std::function<void()> on_unwatch;
  std::function<bool()> detach_ready;
  if (!pool_uses_.empty()) {
    auto uses = std::make_shared<std::vector<PoolUse>>(std::move(pool_uses_));
    pool_uses_.clear();
    on_unwatch = [uses]() {
      for (PoolUse& use : *uses) {
        use.pool->Release(use.lease);
      }
    };
    detach_ready = [uses]() {
      for (const PoolUse& use : *uses) {
        if (!use.pool->LeaseFinished(use.lease)) {
          return false;
        }
      }
      return true;
    };
  }

  // Adopt first: it installs the retire hook that an IO task's close fires,
  // so it must be in place before any task can run.
  registry.Adopt(std::move(graph), std::move(watched), env_, std::move(on_unwatch),
                 std::move(detach_ready));
  env_.ActivateIo(bindings);
  return OkStatus();
}

}  // namespace flick::services
