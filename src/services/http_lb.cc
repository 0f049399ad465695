#include "services/http_lb.h"

#include "base/hash.h"
#include "proto/http.h"
#include "services/graph_builder.h"

namespace flick::services {

HttpLbService::HttpLbService(std::vector<uint16_t> backend_ports)
    : HttpLbService(std::move(backend_ports), Options()) {}

HttpLbService::HttpLbService(std::vector<uint16_t> backend_ports, Options options)
    : backends_(std::move(backend_ports)), options_(options) {
  if (options_.wire.mode == BackendMode::kPooled) {
    BackendPoolConfig cfg;
    cfg.ports = backends_;
    options_.wire.ApplyTo(cfg);
    cfg.make_serializer = [] { return std::make_unique<runtime::HttpSerializer>(); };
    cfg.make_deserializer = [] {
      return std::make_unique<runtime::HttpDeserializer>(
          proto::HttpParser::Mode::kResponse);
    };
    pool_ = std::make_unique<BackendPool>(std::move(cfg));
  }
}

void HttpLbService::OnConnection(std::unique_ptr<Connection> conn,
                                 runtime::PlatformEnv& env) {
  // Backend selection: "a naive hash of the source IP and port and
  // destination IP and port" — the connection id plays the 4-tuple's role on
  // the simulated fabric. Sticky for the connection's lifetime. With the
  // health plane armed, open-circuit backends drop out of rotation: the
  // probe walks forward from the hashed index to the first backend whose
  // breaker is not open, so a downed backend sheds its share onto healthy
  // siblings instead of queueing requests against a known outage.
  size_t backend_index = MixU64(conn->id()) % backends_.size();
  if (options_.wire.mode == BackendMode::kPooled) {
    bool found = false;
    for (size_t k = 0; k < backends_.size(); ++k) {
      const size_t cand = (backend_index + k) % backends_.size();
      if (!pool_->BackendBreakerOpen(cand)) {
        backend_index = cand;
        found = true;
        break;
      }
    }
    if (!found) {
      // Every circuit is open: answer 502 immediately and close, without
      // building a graph — a fleet-wide outage must fail fast, not pile
      // connections onto dead wires until the detach timeout.
      static constexpr char k502[] =
          "HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n"
          "Connection: close\r\n\r\n";
      (void)conn->Write(k502, sizeof(k502) - 1);
      conn->Close();
      fast_fails_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  GraphBuilder b("http-lb", env);
  // One watermark for the whole write path: the pool config batches the
  // backend wires, this batches the client-facing sinks.
  options_.wire.ApplyTo(b);
  auto client = b.Adopt(std::move(conn));

  auto request = b.Source(
      "client-in", client,
      std::make_unique<runtime::HttpDeserializer>(proto::HttpParser::Mode::kRequest));

  if (options_.wire.mode == BackendMode::kPooled) {
    // Pooled shape: dispatch sits on both directions because the shared
    // return path delivers framed responses, not raw bytes. Input 0 is the
    // client, input 1 the pooled responses; output 0 the pooled requests,
    // output 1 the client.
    auto leg = b.PoolLeg(*pool_, backend_index, /*capacity=*/64);
    auto dispatch =
        b.Stage("dispatch",
                [this](runtime::Msg& msg, size_t input_index,
                       runtime::EmitContext& emit) {
                  if (msg.kind == runtime::Msg::Kind::kEof) {
                    if (input_index != 0) {
                      return runtime::HandleResult::kConsumed;
                    }
                    return runtime::BroadcastEof(emit);
                  }
                  if (msg.kind == runtime::Msg::Kind::kError) {
                    // The pooled leg failed this request (deadline expiry,
                    // open circuit, lost wire): its FIFO
                    // position is already spent, so answer 502 and ask the
                    // client to close — a single emit keeps the failure
                    // path idempotent under kBlocked retries.
                    runtime::MsgRef rsp = emit.NewMsg();
                    rsp->kind = runtime::Msg::Kind::kHttp;
                    rsp->http = proto::MakeResponse(502, "",
                                                    /*keep_alive=*/false);
                    return emit.Emit(1, std::move(rsp))
                               ? runtime::HandleResult::kConsumed
                               : runtime::HandleResult::kBlocked;
                  }
                  const size_t out = input_index == 0 ? 0 : 1;
                  runtime::MsgRef fwd = emit.NewMsg();
                  fwd->kind = runtime::Msg::Kind::kHttp;
                  fwd->http = msg.http;
                  if (!emit.Emit(out, std::move(fwd))) {
                    return runtime::HandleResult::kBlocked;
                  }
                  if (input_index == 0) {
                    requests_.fetch_add(1, std::memory_order_relaxed);
                  }
                  return runtime::HandleResult::kConsumed;
                })
            .From(request);
    leg.sink.From(dispatch);  // output 0: requests into the pool
    b.Sink("client-out", client, std::make_unique<runtime::HttpSerializer>())
        .From(dispatch);       // output 1: responses to the client
    dispatch.From(leg.source);  // input 1: correlated responses
  } else {
    // Dedicated shape (Figure 3a): request path parses and forwards; the
    // return path is raw pass-through. The leg is dialled by FanOut — the
    // builder owns dial failures and cleanup.
    auto legs = b.FanOut(
        {backends_[backend_index]}, "backend",
        [] { return std::make_unique<runtime::HttpSerializer>(); },
        [] { return std::make_unique<runtime::RawDeserializer>(); });
    auto dispatch =
        b.Stage("dispatch",
                [this](runtime::Msg& msg, size_t, runtime::EmitContext& emit) {
                  if (msg.kind == runtime::Msg::Kind::kEof) {
                    return runtime::BroadcastEof(emit);
                  }
                  runtime::MsgRef fwd = emit.NewMsg();
                  fwd->kind = runtime::Msg::Kind::kHttp;
                  fwd->http = msg.http;
                  if (!emit.Emit(0, std::move(fwd))) {
                    return runtime::HandleResult::kBlocked;
                  }
                  requests_.fetch_add(1, std::memory_order_relaxed);
                  return runtime::HandleResult::kConsumed;
                })
            .From(request);
    legs[0].sink.From(dispatch);
    b.Sink("client-out", client, std::make_unique<runtime::RawSerializer>())
        .From(legs[0].source);
  }

  if (const Status launched = b.Launch(registry_); !launched.ok()) {
    // Launch already closed every leg (client conn included) and returned
    // any pool leases; all that is left is to account for the failure.
    registry_.CountLaunchFailure();
  }
}

}  // namespace flick::services
