// Declarative per-connection task-graph builder: the one place that turns a
// service's *description* of its graph (Figure 3's shapes) into a correctly
// wired, watched, scheduled and registered TaskGraph.
//
// Services declare connection legs (Adopt / Connect / FanOut), nodes
// (Source / Stage / Sink / Merge / Tee) and edges (NodeRef::From), then call
// Launch(). Launch performs, in one audited sequence, everything services
// used to hand-roll:
//   * channel allocation with per-edge capacities,
//   * task construction in declaration order (stage input/output indices
//     follow edge declaration order),
//   * consumer/scheduler binding,
//   * run folds on every Source that MergeTree wired as a foldt leaf (a
//     sorted stream's equal-key run crosses its channel as one message),
//   * connection ownership: the first node referencing a leg owns the
//     Connection; every later reference is aliased through SharedConn
//     (read/write splits on one wire),
//   * GraphRegistry adoption, which installs the retire-on-close hook
//     before any task can run,
//   * watch-then-notify IO activation via PlatformEnv::ActivateIo, and
//   * failure-path cleanup — if any Connect() failed, or the graph is
//     malformed, every already-opened leg (client and backends alike) is
//     closed instead of leaked.
//
// Example (the HTTP load balancer of §6.1, Figure 3a):
//
//   GraphBuilder b("http-lb", env);
//   auto client  = b.Adopt(std::move(conn));
//   auto backend = b.Connect(port);
//   auto req = b.Source("client-in", client,
//                       std::make_unique<runtime::HttpDeserializer>(mode));
//   auto fwd = b.Stage("dispatch", handler).From(req);
//   b.Sink("backend-out", backend,
//          std::make_unique<runtime::HttpSerializer>()).From(fwd);
//   auto ret = b.Source("backend-in", backend,
//                       std::make_unique<runtime::RawDeserializer>());
//   b.Sink("client-out", client,
//          std::make_unique<runtime::RawSerializer>()).From(ret);
//   b.Launch(registry);
#ifndef FLICK_SERVICES_GRAPH_BUILDER_H_
#define FLICK_SERVICES_GRAPH_BUILDER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/codec.h"
#include "runtime/compute_task.h"
#include "runtime/platform.h"
#include "services/backend_pool.h"
#include "services/service_util.h"

namespace flick::services {

class GraphBuilder;

// Handle to a connection leg owned by the builder until Launch().
class ConnRef {
 public:
  ConnRef() = default;
  bool valid() const { return index_ != kInvalid; }

 private:
  friend class GraphBuilder;
  static constexpr size_t kInvalid = static_cast<size_t>(-1);
  explicit ConnRef(size_t index) : index_(index) {}
  size_t index_ = kInvalid;
};

// Handle to a declared node. From(upstream) declares an edge carrying
// upstream's output stream into this node and returns this node, so
// declarations chain: b.Stage("f", fn).From(src).
class NodeRef {
 public:
  NodeRef() = default;
  bool valid() const { return builder_ != nullptr; }

  // Declares an edge upstream -> this node. `capacity` overrides the channel
  // capacity for this edge (0 = inherit, see GraphBuilder::DefaultCapacity).
  // Input/output indices of stages follow the order edges are declared.
  NodeRef From(NodeRef upstream, size_t capacity = 0);

 private:
  friend class GraphBuilder;
  NodeRef(GraphBuilder* builder, size_t index) : builder_(builder), index_(index) {}
  GraphBuilder* builder_ = nullptr;
  size_t index_ = 0;
};

// Per-graph construction stats filled in by Launch(). Runtime batching
// counters (writev_calls / msgs_per_writev / flushes_forced) accumulate on
// the OutputTasks and are aggregated by RegistryStats; launch stats record
// the batching *configuration* the graph was built with.
struct GraphLaunchStats {
  size_t sources = 0;
  size_t stages = 0;
  size_t sinks = 0;
  size_t merges = 0;
  size_t tees = 0;
  size_t tasks = 0;
  size_t channels = 0;
  size_t connections = 0;  // legs adopted or dialled (dedicated wires)
  size_t watched = 0;      // legs with a read-side input task
  size_t pooled_legs = 0;  // legs served by a BackendPool lease (no dial)
  size_t exclusive_legs = 0;  // streaming legs on an exclusive lease
  size_t flush_watermark = 0; // forced-flush threshold applied to the sinks
  size_t fill_window = 0;     // rx fill-window cap applied to the sources
  size_t io_shard = 0;        // IO shard the graph's legs are pinned to
};

class GraphBuilder {
 public:
  using SerializerFactory = std::function<std::unique_ptr<runtime::Serializer>()>;
  using DeserializerFactory = std::function<std::unique_ptr<runtime::Deserializer>()>;

  // One dialled backend leg of a fan-out (Figure 3b): the wire, the sink
  // carrying requests to it and the source carrying its responses back.
  struct Leg {
    ConnRef conn;
    NodeRef sink;
    NodeRef source;
  };

  // One pooled backend leg: same sink/source shape as Leg, but the wire is a
  // shared BackendPool connection claimed through a lease — nothing is
  // dialled and nothing is closed when the graph retires.
  struct PooledLeg {
    NodeRef sink;    // requests into the pool
    NodeRef source;  // correlated responses back from the pool
  };

  GraphBuilder(std::string name, runtime::PlatformEnv& env);

  // Closes every adopted/dialled leg and returns every pool lease that was
  // never handed to a launched graph — abandoning a builder can not leak
  // connections or leases.
  ~GraphBuilder();

  GraphBuilder(const GraphBuilder&) = delete;
  GraphBuilder& operator=(const GraphBuilder&) = delete;

  // Channel capacity used for edges that specify none. Initially 128.
  GraphBuilder& DefaultCapacity(size_t capacity);

  // Forced-flush threshold applied to every Sink's OutputTask at Launch:
  // messages drained in one run slice coalesce into one vectored write, with
  // a mid-slice flush once the backlog reaches `bytes`
  // (runtime::kDefaultFlushWatermark initially; 1 = write per message,
  // 0 = slice-end flushes only). This is the builder-leg flush control the
  // batched output path is steered with.
  GraphBuilder& FlushWatermark(size_t bytes);

  // Cap on every Source's adaptive rx fill window: pool buffers one vectored
  // read may span (runtime::kDefaultFillWindow initially; 0 or 1 = legacy
  // one-buffer reads, matching BackendPoolConfig::fill_window). The
  // read-side mirror of FlushWatermark.
  GraphBuilder& FillWindow(size_t buffers);

  // Connection-lifetime overrides for this graph's CLIENT legs (adopted
  // connections; dialled/pooled backend wires are never deadline-closed by
  // the builder). Default: inherit the platform policy
  // (PlatformEnv::lifetime). 0 disables the window for this graph.
  GraphBuilder& IdleTimeout(uint64_t ns);
  GraphBuilder& HeaderDeadline(uint64_t ns);

  // --- connection legs -------------------------------------------------------

  // Takes ownership of an accepted connection (the client leg).
  ConnRef Adopt(std::unique_ptr<Connection> conn);

  // Dials a backend. On failure the builder is poisoned: every later call is
  // a no-op and Launch() closes all already-opened legs and reports why.
  ConnRef Connect(uint16_t port);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  // --- nodes -----------------------------------------------------------------

  // Input task: conn -> deserializer -> typed stream. `capacity` is the
  // preferred capacity of the source's output channel (0 = default).
  NodeRef Source(std::string name, ConnRef conn,
                 std::unique_ptr<runtime::Deserializer> codec, size_t capacity = 0);

  // Compute task running `handler` over all inbound edges (round-robin).
  NodeRef Stage(std::string name, runtime::ComputeTask::Handler handler);

  // Output task: stream -> serializer -> conn.
  NodeRef Sink(std::string name, ConnRef conn,
               std::unique_ptr<runtime::Serializer> codec);

  // foldt node (§4.3): merges two key-ordered streams. Exactly two inbound
  // edges (left = first declared) and one outbound edge.
  NodeRef Merge(std::string name, runtime::OrderFn order,
                runtime::CombineFn combine, size_t capacity = 0);

  // Duplicates one inbound stream to every outbound edge (message copies).
  NodeRef Tee(std::string name);

  // --- fan-out / fan-in primitives ------------------------------------------

  // Dials one leg per port and declares its sink/source pair named
  // "<base>-out-<i>" / "<base>-in-<i>". `capacity` becomes the preferred
  // capacity of each leg's channels. Wiring to a dispatch stage stays with
  // the caller so input/output index order is explicit.
  std::vector<Leg> FanOut(const std::vector<uint16_t>& ports, const std::string& base,
                          const SerializerFactory& make_serializer,
                          const DeserializerFactory& make_deserializer,
                          size_t capacity = 0);

  // Declares one pooled leg per backend of `pool` under a single lease
  // (Figure 3b with shared transport): leg i carries requests to backend i
  // and receives that backend's correlated responses. The pool is started on
  // first use; a start or lease failure poisons the builder, and a poisoned
  // Launch RETURNS the lease to the pool — pooled wires are never closed by
  // graph cleanup. `capacity` is the preferred capacity of each leg's
  // channels.
  std::vector<PooledLeg> FanOutPooled(BackendPool& pool, size_t capacity = 0);

  // Single pooled leg to one backend of `pool` (the HTTP LB's sticky-backend
  // shape). Multiple PoolLeg/FanOutPooled calls against the same pool share
  // one lease per builder.
  PooledLeg PoolLeg(BackendPool& pool, size_t backend_index, size_t capacity = 0);

  // Streaming (write-only) pooled leg on its OWN exclusive lease: sole future
  // use of one connection slot, no pipelining with other graphs' traffic, no
  // response path — the long-lived streaming-sink shape (hadoop_agg's reducer
  // leg). Returns the sink node to wire `.From(stream)`. Retirement waits for
  // the stream's EOF to reach the pool before the lease is returned, so no
  // in-channel data is ever dropped; the wire persists for the next lease.
  NodeRef ExclusivePoolLeg(BackendPool& pool, size_t backend_index,
                           size_t capacity = 0);

  // Same, over a lease the caller already holds (AcquireExclusive) — for
  // services that acquire BEFORE wiring so an exhausted pool can fall back
  // to a dedicated leg instead of poisoning the whole graph (hadoop_agg).
  // The builder takes ownership; on a poisoned builder or invalid lease the
  // lease is returned to the pool.
  NodeRef ExclusivePoolLeg(BackendPool& pool, PoolLease lease, size_t backend_index,
                           size_t capacity = 0);

  // Pairwise binary merge tree over `streams` ("combining elements in a
  // pair-wise manner until only the result remains", §4.3). Returns the root
  // stream. Every stream that is a Source folds its equal-keyed runs with
  // `order`/`combine` before its first channel (runtime::RunFold), so a
  // sorted stream's run travels as one message; with a single input stream
  // no merge node is created and that fold is the whole tree.
  NodeRef MergeTree(const std::string& base, std::vector<NodeRef> streams,
                    runtime::OrderFn order,
                    runtime::CombineFn combine, size_t capacity = 0);

  // --- launch ----------------------------------------------------------------

  // Materialises the graph: validates the topology, allocates channels,
  // constructs and wires tasks, activates IO (watch-then-notify) and adopts
  // the graph into `registry`. On any failure all legs are closed and the
  // error is returned; the builder is single-shot either way.
  Status Launch(GraphRegistry& registry);

  // Valid after a successful Launch().
  const GraphLaunchStats& stats() const { return stats_; }

 private:
  friend class NodeRef;

  enum class NodeKind { kSource, kStage, kSink, kMerge, kTee, kPoolSink, kPoolSource };

  struct NodeSpec {
    NodeKind kind;
    std::string name;
    size_t conn = ConnRef::kInvalid;  // sources/sinks
    std::unique_ptr<runtime::Deserializer> deserializer;
    std::unique_ptr<runtime::Serializer> serializer;
    runtime::ComputeTask::Handler handler;
    runtime::OrderFn order;      // merges; sources leading a MergeTree
    runtime::CombineFn combine;
    size_t preferred_capacity = 0;  // for edges touching this node
    std::vector<size_t> in_edges;   // edge indices, declaration order
    std::vector<size_t> out_edges;
  };

  struct EdgeSpec {
    size_t from;
    size_t to;
    size_t capacity = 0;  // 0 = resolve from endpoints / default
  };

  struct ConnSpec {
    std::unique_ptr<Connection> owned;
    Connection* raw = nullptr;
    size_t source_node = static_cast<size_t>(-1);   // reading node, if any
    size_t sink_node = static_cast<size_t>(-1);     // writing node, if any
    bool referenced = false;                        // used by any node
    bool client = true;  // adopted leg (false = dialled backend wire)
    runtime::InputTask* source_task = nullptr;      // filled during Launch
  };

  // One lease per (builder, pool) for shared legs; exclusive legs each carry
  // their own lease. Legs record which lease slot they bind.
  struct PoolUse {
    BackendPool* pool;
    PoolLease lease;
  };
  struct PoolBinding {
    size_t pool_use;       // index into pool_uses_
    size_t backend_index;  // backend within the pool
    size_t sink_node;      // kPoolSink node index
    size_t source_node;    // kPoolSource node index; kInvalid = streaming leg
    static constexpr size_t kInvalid = static_cast<size_t>(-1);
  };

  NodeRef AddNode(NodeSpec spec);
  void AddEdge(size_t from, size_t to, size_t capacity);
  void Poison(Status status);

  // The ONE failure/abandon path: closes every owned leg (adopted or
  // dialled) and returns every pool lease. Partial FanOut dials and failed
  // FanOutPooled acquisitions are cleaned up identically — dedicated wires
  // close, pooled wires go back to their pool.
  void ReleaseAllLegs();

  size_t PoolUseIndex(BackendPool& pool);
  Status Validate() const;
  size_t ResolveCapacity(const EdgeSpec& edge) const;

  // Hands out the leg's Connection: the first taker owns it, later takers
  // get a SharedConn alias.
  std::unique_ptr<Connection> TakeConn(size_t conn_index);

  std::string name_;
  runtime::PlatformEnv& env_;
  Status status_;
  bool launched_ = false;
  size_t default_capacity_ = 128;
  size_t flush_watermark_ = runtime::kDefaultFlushWatermark;
  size_t fill_window_ = runtime::kDefaultFillWindow;
  static constexpr uint64_t kInheritLifetime = UINT64_MAX;
  uint64_t idle_timeout_override_ = kInheritLifetime;
  uint64_t header_deadline_override_ = kInheritLifetime;
  std::vector<ConnSpec> conns_;
  std::vector<NodeSpec> nodes_;
  std::vector<EdgeSpec> edges_;
  std::vector<PoolUse> pool_uses_;
  std::vector<PoolBinding> pool_bindings_;
  GraphLaunchStats stats_;
};

}  // namespace flick::services

#endif  // FLICK_SERVICES_GRAPH_BUILDER_H_
