// Tour of the declarative graph-builder API (services::GraphBuilder).
//
//   $ ./graph_builder_tour
//
// Builds two graph shapes against the simulated fabric without hand-wiring
// a single channel or watch:
//   1. a pipeline — source -> stage -> sink on one connection (Fig. 3a's
//      request path, degenerated to an uppercase echo),
//   2. a fan-out  — one client stream teed to two mirror backends.
// For the fan-in shape (Fig. 3c, MergeTree), see examples/hadoop_wordcount
// — its HadoopAggService is built on GraphBuilder::MergeTree.
#include <cctype>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/sim_transport.h"
#include "runtime/platform.h"
#include "services/graph_builder.h"

namespace {

using namespace flick;

// 1. Pipeline: uppercase echo on the accepted connection.
class UppercaseEcho : public runtime::ServiceProgram {
 public:
  const char* name() const override { return "upper-echo"; }

  void OnConnection(std::unique_ptr<Connection> conn,
                    runtime::PlatformEnv& env) override {
    services::GraphBuilder b("upper-echo", env);
    auto client = b.Adopt(std::move(conn));
    auto in = b.Source("in", client, std::make_unique<runtime::RawDeserializer>());
    auto upper =
        b.Stage("upper",
                [](runtime::Msg& msg, size_t, runtime::EmitContext& emit) {
                  runtime::MsgRef out = emit.NewMsg();
                  out->kind = msg.kind;
                  out->bytes = msg.bytes;
                  for (char& c : out->bytes) {
                    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
                  }
                  return emit.Emit(0, std::move(out))
                             ? runtime::HandleResult::kConsumed
                             : runtime::HandleResult::kBlocked;
                })
            .From(in);
    b.Sink("out", client, std::make_unique<runtime::RawSerializer>()).From(upper);
    if (b.Launch(registry).ok()) {
      std::printf("  launched '%s': %zu tasks, %zu channels, %zu watched legs\n",
                  name(), b.stats().tasks, b.stats().channels, b.stats().watched);
    }
  }

  services::GraphRegistry registry;
};

// 2. Fan-out: tee the client stream to two mirrors (think: live traffic
// duplication to a shadow deployment).
class MirrorService : public runtime::ServiceProgram {
 public:
  MirrorService(uint16_t a, uint16_t b) : a_(a), b_(b) {}

  const char* name() const override { return "mirror"; }

  void OnConnection(std::unique_ptr<Connection> conn,
                    runtime::PlatformEnv& env) override {
    services::GraphBuilder b("mirror", env);
    auto client = b.Adopt(std::move(conn));
    auto left = b.Connect(a_);
    auto right = b.Connect(b_);
    auto in = b.Source("in", client, std::make_unique<runtime::RawDeserializer>());
    auto tee = b.Tee("tee").From(in);
    b.Sink("left", left, std::make_unique<runtime::RawSerializer>()).From(tee);
    b.Sink("right", right, std::make_unique<runtime::RawSerializer>()).From(tee);
    const Status status = b.Launch(registry);
    std::printf("  launched '%s': %s (%zu legs, %zu sinks)\n", name(),
                status.ToString().c_str(), b.stats().connections, b.stats().sinks);
  }

  services::GraphRegistry registry;

 private:
  uint16_t a_, b_;
};

void Pump(Connection& conn, const std::string& payload, std::string* reply,
          size_t expect) {
  size_t off = 0;
  while (off < payload.size()) {
    auto wrote = conn.Write(payload.data() + off, payload.size() - off);
    if (!wrote.ok()) {
      return;
    }
    off += *wrote;
  }
  char buf[1024];
  while (reply != nullptr && reply->size() < expect) {
    auto got = conn.Read(buf, sizeof(buf));
    if (!got.ok()) {
      return;
    }
    if (*got > 0) {
      reply->append(buf, *got);
    }
  }
}

}  // namespace

int main() {
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Null());

  runtime::PlatformConfig config;
  config.scheduler.num_workers = 2;
  runtime::Platform platform(config, &transport);

  std::printf("1. pipeline (source -> stage -> sink):\n");
  UppercaseEcho echo;
  (void)platform.RegisterProgram(80, &echo);

  std::printf("2. fan-out (source -> tee -> two mirror sinks):\n");
  auto mirror_a = transport.Listen(9001);
  auto mirror_b = transport.Listen(9002);
  MirrorService mirror(9001, 9002);
  (void)platform.RegisterProgram(81, &mirror);

  platform.Start();

  bool ok = true;
  {
    auto conn = transport.Connect(80);
    std::string reply;
    Pump(**conn, "hello, flick!", &reply, 13);
    std::printf("  echo('hello, flick!') = '%s'\n", reply.c_str());
    ok = ok && reply == "HELLO, FLICK!";
    (*conn)->Close();
  }

  {
    auto conn = transport.Connect(81);
    auto peer_a = (*mirror_a)->Accept();
    auto peer_b = (*mirror_b)->Accept();
    while (peer_a == nullptr) peer_a = (*mirror_a)->Accept();
    while (peer_b == nullptr) peer_b = (*mirror_b)->Accept();
    Pump(**conn, "mirrored-bytes", nullptr, 0);
    std::string got_a, got_b;
    char buf[1024];
    while (got_a.size() < 14) {
      auto got = peer_a->Read(buf, sizeof(buf));
      if (!got.ok()) break;  // leg closed (e.g. launch failure): don't spin
      if (*got > 0) got_a.append(buf, *got);
    }
    while (got_b.size() < 14) {
      auto got = peer_b->Read(buf, sizeof(buf));
      if (!got.ok()) break;
      if (*got > 0) got_b.append(buf, *got);
    }
    std::printf("  mirror A saw '%s', mirror B saw '%s'\n", got_a.c_str(), got_b.c_str());
    ok = ok && got_a == "mirrored-bytes" && got_b == "mirrored-bytes";
    (*conn)->Close();
  }

  platform.Stop();
  std::printf(ok ? "done.\n" : "FAILED\n");
  return ok ? 0 : 1;
}
