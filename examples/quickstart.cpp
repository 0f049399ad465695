// Quickstart: compile a FLICK program, inspect its synthesized wire grammar,
// and run it as a live middlebox on the simulated fabric.
//
//   $ ./quickstart
//
// Steps shown:
//   1. write a FLICK program (the Memcached proxy from §4.1),
//   2. compile it (parse -> type check -> grammar synthesis),
//   3. register it on a platform and push a request through it.
#include <cstdio>

#include "lang/compile.h"
#include "load/backends.h"
#include "net/sim_transport.h"
#include "proto/memcached.h"
#include "runtime/platform.h"
#include "services/dsl_service.h"

namespace {

// Listing 1 (§4.1): hash-partitioning Memcached proxy, written against the
// real binary protocol header.
constexpr const char kProxySource[] = R"(
type cmd: record
    _ : string {size=1}
    opcode : string {size=1}
    keylen : integer {signed=false, size=2}
    extraslen : integer {signed=false, size=1}
    _ : string {size=1}
    _ : string {size=2}
    bodylen : integer {signed=false, size=4}
    _ : string {size=4}
    _ : string {size=8}
    _ : string {size=extraslen}
    key : string {size=keylen}
    _ : string {size=bodylen-extraslen-keylen}

proc Memcached: (cmd/cmd client, [cmd/cmd] backends)
    backends => client
    client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req:cmd) -> ()
    let target = hash(req.key) mod len(backends)
    req => backends[target]
)";

}  // namespace

int main() {
  using namespace flick;

  // --- 1+2: compile ----------------------------------------------------------
  auto compiled = lang::CompileSource(kProxySource);
  if (!compiled.ok()) {
    std::printf("compile error: %s\n", compiled.status().ToString().c_str());
    return 1;
  }
  std::printf("compiled program: %zu type(s), %zu proc(s), %zu fun(s)\n",
              (*compiled)->ast.types.size(), (*compiled)->ast.procs.size(),
              (*compiled)->ast.funs.size());
  const grammar::Unit* unit = (*compiled)->UnitFor("cmd");
  std::printf("synthesized grammar '%s': %zu fields, %zu-byte fixed header\n",
              unit->name().c_str(), unit->fields().size(), unit->fixed_prefix_size());

  // --- 3: run it -------------------------------------------------------------
  SimNetwork net;
  SimTransport transport(&net, StackCostModel::Mtcp());

  // Two backends with disjoint preloaded keys.
  load::MemcachedBackend b0(&transport, 11000), b1(&transport, 11001);
  FLICK_CHECK(b0.Start().ok() && b1.Start().ok());
  b0.Preload("alpha", "from-backend-0");
  b1.Preload("alpha", "from-backend-0");  // either owner answers identically

  runtime::Platform platform(runtime::PlatformConfig{}, &transport);
  auto service = services::DslService::Create(kProxySource, "Memcached", {11000, 11001});
  FLICK_CHECK(service.ok());
  FLICK_CHECK(platform.RegisterProgram(11211, service->get()).ok());
  platform.Start();

  // Client: one GETK through the DSL-compiled middlebox.
  auto conn = transport.Connect(11211);
  FLICK_CHECK(conn.ok());
  grammar::Message request;
  proto::BuildRequest(&request, proto::kMemcachedGetK, "alpha");
  const std::string wire = proto::ToWire(request);
  size_t off = 0;
  while (off < wire.size()) {
    auto wrote = (*conn)->Write(wire.data() + off, wire.size() - off);
    FLICK_CHECK(wrote.ok());
    off += *wrote;
  }

  BufferPool pool(16, 4096);
  BufferChain rx(&pool);
  grammar::UnitParser parser(&proto::MemcachedUnit());
  grammar::Message response;
  char buf[4096];
  while (true) {
    auto got = (*conn)->Read(buf, sizeof(buf));
    FLICK_CHECK(got.ok());
    if (*got > 0) {
      rx.Append(buf, *got);
      if (parser.Feed(rx, &response) == grammar::ParseStatus::kDone) {
        break;
      }
    }
  }
  proto::MemcachedCommand cmd(&response);
  std::printf("GETK alpha -> status=%u value='%.*s'\n", cmd.status(),
              static_cast<int>(cmd.value().size()), cmd.value().data());

  const bool ok = cmd.status() == proto::kMemcachedStatusOk && cmd.value() == "from-backend-0";

  (*conn)->Close();
  platform.Stop();
  b0.Stop();
  b1.Stop();
  std::printf(ok ? "quickstart OK\n" : "quickstart FAILED\n");
  return ok ? 0 : 1;
}
