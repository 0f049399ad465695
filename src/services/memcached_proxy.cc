#include "services/memcached_proxy.h"

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "base/hash.h"
#include "proto/memcached.h"
#include "runtime/state_store.h"

namespace flick::services {

MemcachedProxyService::MemcachedProxyService(std::vector<uint16_t> backend_ports)
    : MemcachedProxyService(std::move(backend_ports), Options()) {}

MemcachedProxyService::MemcachedProxyService(std::vector<uint16_t> backend_ports,
                                             Options options)
    : backends_(std::move(backend_ports)), options_(options) {
  if (options_.wire.mode == BackendMode::kPooled) {
    const grammar::Unit* unit = &proto::MemcachedUnit();
    BackendPoolConfig cfg;
    cfg.ports = backends_;
    options_.wire.ApplyTo(cfg);
    cfg.make_serializer = [unit] {
      return std::make_unique<runtime::GrammarSerializer>(unit);
    };
    cfg.make_deserializer = [unit] {
      return std::make_unique<runtime::GrammarDeserializer>(unit);
    };
    pool_ = std::make_unique<BackendPool>(std::move(cfg));
  }
}

// Dispatch: `hash(req.key) mod len(backends)` (Listing 1). Outputs 0..n-1
// are the backend legs (pooled or dedicated), output n the client; input 0
// is the client, inputs 1..n the backends — fixed by edge declaration order
// in OnConnection.
NodeRef MemcachedProxyService::DispatchStage(GraphBuilder& b, size_t n) {
  return b.Stage(
      "dispatch", [this, n](runtime::Msg& msg, size_t input_index,
                            runtime::EmitContext& emit) {
        if (msg.kind == runtime::Msg::Kind::kEof) {
          if (input_index != 0) {
            return runtime::HandleResult::kConsumed;
          }
          // Client left: signal all backend legs and the client leg (a
          // pooled leg treats the EOF as "this graph is done" without
          // touching the shared wire).
          return runtime::BroadcastEof(emit);
        }
        if (input_index == 0) {
          // Request from the client: route by key hash.
          proto::MemcachedCommand cmd(&msg.gmsg);
          const size_t target = HashBytes(cmd.key()) % n;
          runtime::MsgRef fwd = emit.NewMsg();
          fwd->kind = runtime::Msg::Kind::kGrammar;
          fwd->gmsg = msg.gmsg;
          if (!emit.Emit(target, std::move(fwd))) {
            return runtime::HandleResult::kBlocked;
          }
          requests_.fetch_add(1, std::memory_order_relaxed);
          return runtime::HandleResult::kConsumed;
        }
        if (msg.kind == runtime::Msg::Kind::kError) {
          // The backend leg failed this request (deadline expiry, open
          // circuit, lost wire): answer INTERNAL_ERROR in its FIFO position
          // so the client fails fast instead of hanging. The plain stage
          // keeps no per-request state, so opcode/opaque cannot be echoed.
          runtime::MsgRef resp = emit.NewMsg();
          resp->kind = runtime::Msg::Kind::kGrammar;
          proto::BuildResponse(&resp->gmsg, proto::kMemcachedGet,
                               proto::kMemcachedStatusInternalError,
                               /*key=*/{}, /*value=*/msg.bytes);
          return emit.Emit(n, std::move(resp))
                     ? runtime::HandleResult::kConsumed
                     : runtime::HandleResult::kBlocked;
        }
        // Response from a backend: forward to the client (output n).
        runtime::MsgRef resp = emit.NewMsg();
        resp->kind = runtime::Msg::Kind::kGrammar;
        resp->gmsg = msg.gmsg;
        return emit.Emit(n, std::move(resp)) ? runtime::HandleResult::kConsumed
                                             : runtime::HandleResult::kBlocked;
      });
}

// Look-aside cache variant of the dispatch stage. Same topology (input 0
// client, inputs 1..n backends, outputs 0..n-1 backends, output n client),
// plus:
//  * GET/GETK hit: answered straight from the StateStore — build the
//    response locally (mirroring the backend's reply shape: OK, key echoed
//    only for GETK, requester's opaque) and emit to the client. No pool
//    lease, no backend leg touched.
//  * GET/GETK miss: snapshot the invalidation epoch, forward to the backend,
//    and remember the flight in a per-leg FIFO so the response path can
//    populate. Per-leg response order is FIFO (pool correlation for pooled
//    legs, a dedicated pipelined wire per client otherwise), so a plain
//    deque correlates responses to flights.
//  * Keyed write (SET et al.): invalidate the entry BEFORE forwarding (stale
//    hits stop immediately) and again on the response path (the backend has
//    committed; the second bump widens invalidate-wins coverage to populates
//    that read the pre-write value from the backend).
//
// Blocked-retry discipline (a kBlocked handler re-runs with the SAME
// message): every side effect — counters, store writes, flight records —
// happens only after the emit that commits the message has succeeded; the
// hit path pre-checks CanEmit before building the reply.
NodeRef MemcachedProxyService::CachingDispatchStage(GraphBuilder& b, size_t n,
                                                    runtime::StateStore* store) {
  struct Flight {
    enum class Kind : uint8_t { kNone, kPopulate, kInvalidate };
    std::string key;
    uint64_t epoch = 0;  // kPopulate: epoch snapshotted before the fetch
    Kind kind = Kind::kNone;
    // Echoed into the synthesized reply when the leg FAILS the flight
    // (degrade-to-cache / INTERNAL_ERROR paths).
    uint8_t opcode = proto::kMemcachedGet;
    uint32_t opaque = 0;
  };
  // Per-graph flight FIFOs, one per backend leg; the stage handler is the
  // only reader and writer (a graph's stage runs single-threaded).
  auto flights = std::make_shared<std::vector<std::deque<Flight>>>(n);
  CacheCounters* counters = &registry_.cache_counters();
  const CacheOptions cache = options_.cache;
  // Last-known-good copies live beside the cache dict, never invalidated.
  const std::string stale_dict = cache.dict + "/stale";
  return b.Stage(
      "dispatch", [this, n, store, flights, counters, cache, stale_dict](
                      runtime::Msg& msg, size_t input_index,
                      runtime::EmitContext& emit) {
        if (msg.kind == runtime::Msg::Kind::kEof) {
          if (input_index != 0) {
            return runtime::HandleResult::kConsumed;
          }
          // Client left: same EOF broadcast as the plain dispatch stage.
          return runtime::BroadcastEof(emit);
        }
        if (input_index == 0) {
          proto::MemcachedCommand cmd(&msg.gmsg);
          const uint8_t op = cmd.opcode();
          const bool is_get =
              op == proto::kMemcachedGet || op == proto::kMemcachedGetK;
          if (is_get) {
            const std::string key(cmd.key());
            if (std::optional<std::string> hit = store->Get(cache.dict, key)) {
              if (!emit.CanEmit(n)) {
                return runtime::HandleResult::kBlocked;
              }
              runtime::MsgRef resp = emit.NewMsg();
              resp->kind = runtime::Msg::Kind::kGrammar;
              proto::BuildResponse(&resp->gmsg, op, proto::kMemcachedStatusOk,
                                   op == proto::kMemcachedGetK
                                       ? std::string_view(key)
                                       : std::string_view{},
                                   *hit, cmd.opaque());
              emit.Emit(n, std::move(resp));
              counters->hits.fetch_add(1, std::memory_order_relaxed);
              requests_.fetch_add(1, std::memory_order_relaxed);
              return runtime::HandleResult::kConsumed;
            }
          }
          // Miss or non-GET: proxy through the backend plane.
          const size_t target = HashBytes(cmd.key()) % n;
          Flight flight;
          flight.opcode = op;
          flight.opaque = cmd.opaque();
          if (is_get) {
            flight.key = std::string(cmd.key());
            // Snapshot BEFORE the fetch is issued: any invalidation that
            // lands from here on must beat the populate.
            flight.epoch = store->InvalidationEpoch(cache.dict, flight.key);
            flight.kind = Flight::Kind::kPopulate;
          } else if (!cmd.key().empty()) {
            flight.key = std::string(cmd.key());
            flight.kind = Flight::Kind::kInvalidate;
          }
          runtime::MsgRef fwd = emit.NewMsg();
          fwd->kind = runtime::Msg::Kind::kGrammar;
          fwd->gmsg = msg.gmsg;
          if (!emit.Emit(target, std::move(fwd))) {
            return runtime::HandleResult::kBlocked;
          }
          if (flight.kind == Flight::Kind::kPopulate) {
            counters->misses.fetch_add(1, std::memory_order_relaxed);
          } else if (flight.kind == Flight::Kind::kInvalidate) {
            store->Erase(cache.dict, flight.key);
            counters->invalidations.fetch_add(1, std::memory_order_relaxed);
          }
          (*flights)[target].push_back(std::move(flight));
          requests_.fetch_add(1, std::memory_order_relaxed);
          return runtime::HandleResult::kConsumed;
        }
        // Response from backend leg input_index-1. Pre-check the client
        // output so the flight pop happens exactly once per response (this
        // stage is output n's only producer, so CanEmit cannot be raced).
        if (!emit.CanEmit(n)) {
          return runtime::HandleResult::kBlocked;
        }
        std::deque<Flight>& leg = (*flights)[input_index - 1];
        Flight flight;
        if (!leg.empty()) {
          flight = std::move(leg.front());
          leg.pop_front();
        }
        if (msg.kind == runtime::Msg::Kind::kError) {
          // The leg failed this flight (deadline expiry, open circuit, lost
          // wire). A failed GET degrades to the
          // last-known-good copy when one exists — outage availability over
          // freshness; everything else answers INTERNAL_ERROR so the client
          // fails fast instead of hanging to the detach timeout.
          runtime::MsgRef resp = emit.NewMsg();
          resp->kind = runtime::Msg::Kind::kGrammar;
          if (flight.kind == Flight::Kind::kPopulate && cache.serve_stale) {
            if (std::optional<std::string> stale =
                    store->Get(stale_dict, flight.key)) {
              proto::BuildResponse(&resp->gmsg, flight.opcode,
                                   proto::kMemcachedStatusOk,
                                   flight.opcode == proto::kMemcachedGetK
                                       ? std::string_view(flight.key)
                                       : std::string_view{},
                                   *stale, flight.opaque);
              emit.Emit(n, std::move(resp));
              counters->stale_served.fetch_add(1, std::memory_order_relaxed);
              return runtime::HandleResult::kConsumed;
            }
          }
          proto::BuildResponse(&resp->gmsg, flight.opcode,
                               proto::kMemcachedStatusInternalError,
                               /*key=*/{}, /*value=*/msg.bytes, flight.opaque);
          emit.Emit(n, std::move(resp));
          return runtime::HandleResult::kConsumed;
        }
        if (flight.kind == Flight::Kind::kPopulate) {
          proto::MemcachedCommand resp(&msg.gmsg);
          if (resp.status() == proto::kMemcachedStatusOk &&
              resp.value().size() <= cache.max_value_bytes) {
            if (!store->PutIfFresh(cache.dict, flight.key,
                                   std::string(resp.value()), flight.epoch)) {
              counters->stale_populates_dropped.fetch_add(
                  1, std::memory_order_relaxed);
            }
            if (cache.serve_stale) {
              // Last-known-good copy for degrade-to-cache: a plain Put,
              // deliberately exempt from invalidate-wins — staleness is the
              // feature when the backend is gone.
              store->Put(stale_dict, flight.key, std::string(resp.value()));
            }
          }
        } else if (flight.kind == Flight::Kind::kInvalidate) {
          store->Erase(cache.dict, flight.key);
        }
        runtime::MsgRef resp = emit.NewMsg();
        resp->kind = runtime::Msg::Kind::kGrammar;
        resp->gmsg = msg.gmsg;
        emit.Emit(n, std::move(resp));
        return runtime::HandleResult::kConsumed;
      });
}

void MemcachedProxyService::OnConnection(std::unique_ptr<Connection> conn,
                                         runtime::PlatformEnv& env) {
  const size_t n = backends_.size();
  const grammar::Unit* unit = &proto::MemcachedUnit();

  GraphBuilder b("memcached-proxy", env);
  // One watermark for the whole write path: the pool config batches the
  // backend wires, this batches the client-facing sinks.
  options_.wire.ApplyTo(b);
  auto client = b.Adopt(std::move(conn));

  // Request path: parse with the projected unit (opcode/key only).
  auto request = b.Source("client-in", client,
                          std::make_unique<runtime::GrammarDeserializer>(unit));
  auto dispatch = (options_.cache.enabled
                       ? CachingDispatchStage(b, n, env.state)
                       : DispatchStage(b, n))
                      .From(request);

  if (options_.wire.mode == BackendMode::kPooled) {
    // Shared transport: one lease over the pool's persistent connections.
    // Nothing is dialled; a pool failure poisons the builder and Launch()
    // returns the lease.
    auto legs = b.FanOutPooled(*pool_, /*capacity=*/64);
    for (auto& leg : legs) {
      leg.sink.From(dispatch);  // dispatch outputs 0..n-1
    }
    b.Sink("client-out", client, std::make_unique<runtime::GrammarSerializer>(unit))
        .From(dispatch);  // dispatch output n
    for (auto& leg : legs) {
      dispatch.From(leg.source);  // dispatch inputs 1..n
    }
  } else {
    // One persistent connection per backend for this client (Figure 3b). A
    // dial failure poisons the builder and Launch() closes the established
    // legs as well as the client.
    auto legs = b.FanOut(
        backends_, "backend",
        [unit] { return std::make_unique<runtime::GrammarSerializer>(unit); },
        [unit] { return std::make_unique<runtime::GrammarDeserializer>(unit); },
        /*capacity=*/64);
    for (auto& leg : legs) {
      leg.sink.From(dispatch);
    }
    b.Sink("client-out", client, std::make_unique<runtime::GrammarSerializer>(unit))
        .From(dispatch);
    for (auto& leg : legs) {
      dispatch.From(leg.source);
    }
  }

  if (const Status launched = b.Launch(registry_); !launched.ok()) {
    // Launch already closed every leg (client conn included) and returned
    // any pool leases; all that is left is to account for the failure.
    registry_.CountLaunchFailure();
  }
}

}  // namespace flick::services
