#include "services/static_http.h"

#include "services/graph_builder.h"

namespace flick::services {

void StaticHttpService::OnConnection(std::unique_ptr<Connection> conn,
                                     runtime::PlatformEnv& env) {
  GraphBuilder b("static-http", env);
  options_.wire.ApplyTo(b);
  auto client = b.Adopt(std::move(conn));

  auto request = b.Source(
      "http-in", client,
      std::make_unique<runtime::HttpDeserializer>(proto::HttpParser::Mode::kRequest));
  auto respond =
      b.Stage("respond",
              [this](runtime::Msg& msg, size_t, runtime::EmitContext& emit) {
                if (msg.kind == runtime::Msg::Kind::kEof) {
                  return runtime::BroadcastEof(emit);
                }
                runtime::MsgRef resp = emit.NewMsg();
                resp->kind = runtime::Msg::Kind::kHttp;
                resp->http = proto::MakeResponse(200, body_, msg.http.keep_alive);
                if (!emit.Emit(0, std::move(resp))) {
                  return runtime::HandleResult::kBlocked;
                }
                requests_.fetch_add(1, std::memory_order_relaxed);
                return runtime::HandleResult::kConsumed;
              })
          .From(request);
  b.Sink("http-out", client, std::make_unique<runtime::HttpSerializer>())
      .From(respond);

  if (const Status launched = b.Launch(registry_); !launched.ok()) {
    // Launch already closed every leg (client conn included) and returned
    // any pool leases; all that is left is to account for the failure.
    registry_.CountLaunchFailure();
  }
}

}  // namespace flick::services
