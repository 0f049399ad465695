#include "services/dsl_service.h"

#include <utility>

#include "services/graph_builder.h"

namespace flick::services {

// Listing 1's caching Memcached router, with the `cmd` type declared against
// the REAL binary protocol header (paper Listing 2 layout: magic, opcode,
// key/extras lengths, status, 4-byte total body length, opaque, cas) so the
// service interoperates with genuine Memcached peers. Anonymous '_' fields
// are framed and preserved but inaccessible to the program.
const char kMemcachedRouterSource[] = R"(
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

proc memcached: (cmd/cmd client, [cmd/cmd] backends)
    global cache := empty_dict
    backends => update_cache(cache) => client
    client => test_cache(client, backends, cache)

fun update_cache: (cache: ref dict<string*string>, resp: cmd) -> (cmd)
    if resp.opcode = 0x0c:
        cache[resp.key] := resp
    resp

fun test_cache: (-/cmd client, [-/cmd] backends, cache: ref dict<string*string>, req: cmd) -> ()
    if cache[req.key] = None or req.opcode <> 0x0c:
        let target = hash(req.key) mod len(backends)
        req => backends[target]
    else:
        cache[req.key] => client
)";

// RESP GET/SET router over the fixed-arity-3 subset: every request is
// `*3\r\n$<n>\r\n<cmd>\r\n$<n>\r\n<key>\r\n$<n>\r\n<val>\r\n` (a GET carries
// an empty `$0\r\n\r\n` value — a documented deviation from full RESP, which
// sends arity-2 GETs). The {ascii=true} integer fields parse/serialize the
// decimal digit runs INCLUDING their CRLF terminator; payload strings carry
// an explicit 2-byte anonymous CRLF. Replies are RESP bulk strings.
const char kRespRouterSource[] = R"(
type req: record
    _ : string {size=1}
    nargs : integer {ascii=true}
    _ : string {size=1}
    cmdlen : integer {ascii=true}
    cmd : string {size=cmdlen}
    _ : string {size=2}
    _ : string {size=1}
    keylen : integer {ascii=true}
    key : string {size=keylen}
    _ : string {size=2}
    _ : string {size=1}
    vallen : integer {ascii=true}
    value : string {size=vallen}
    _ : string {size=2}

type reply: record
    _ : string {size=1}
    len : integer {ascii=true}
    data : string {size=len}
    _ : string {size=2}

proc resp_router: (req/reply client, [reply/req] backends)
    backends => client
    client => route(backends)

fun route: ([-/req] backends, r: req) -> ()
    let target = hash(r.key) mod len(backends)
    r => backends[target]
)";

Result<std::unique_ptr<DslService>> DslService::Create(const std::string& source,
                                                       const std::string& proc_name,
                                                       std::vector<uint16_t> backend_ports) {
  return Create(source, proc_name, std::move(backend_ports), Options());
}

Result<std::unique_ptr<DslService>> DslService::Create(const std::string& source,
                                                       const std::string& proc_name,
                                                       std::vector<uint16_t> backend_ports,
                                                       Options options) {
  auto compiled = lang::CompileSource(source);
  if (!compiled.ok()) {
    return compiled.status();
  }
  auto service = std::unique_ptr<DslService>(new DslService());
  service->program_ = std::move(compiled).value();
  service->proc_ = service->program_->ast.FindProc(proc_name);
  if (service->proc_ == nullptr) {
    return NotFound("no proc named '" + proc_name + "'");
  }
  service->name_ = "dsl:" + proc_name;
  service->backend_ports_ = std::move(backend_ports);
  service->options_ = options;

  // Identify the scalar client channel and the backend channel array, and
  // resolve the units for both directions of each (in = what the service
  // reads from that peer, out = what it writes to it). Symmetric protocols
  // (memcached's cmd/cmd) resolve both to the same Unit; asymmetric ones
  // (RESP's req/reply) get distinct serializers per direction.
  for (const lang::Param& p : service->proc_->params) {
    if (!p.channel.has_value()) {
      continue;
    }
    const lang::ChannelType& ch = *p.channel;
    if (ch.is_array) {
      service->backends_param_ = p.name;
      if (ch.in_type != "-") {
        service->backend_in_unit_ = service->program_->UnitFor(ch.in_type);
      }
      if (ch.out_type != "-") {
        service->backend_out_unit_ = service->program_->UnitFor(ch.out_type);
      }
    } else {
      service->client_param_ = p.name;
      if (ch.in_type != "-") {
        service->client_in_unit_ = service->program_->UnitFor(ch.in_type);
      }
      if (ch.out_type != "-") {
        service->client_out_unit_ = service->program_->UnitFor(ch.out_type);
      }
    }
  }
  if (service->client_param_.empty()) {
    return InvalidArgument("proc must declare a scalar client channel");
  }
  if (!service->backends_param_.empty() && service->backend_ports_.empty()) {
    return InvalidArgument("proc declares a backend array but no backend ports given");
  }
  // Write-only or read-only channels keep the wire symmetric.
  if (service->client_out_unit_ == nullptr) {
    service->client_out_unit_ = service->client_in_unit_;
  }
  if (service->backend_out_unit_ == nullptr) {
    service->backend_out_unit_ = service->backend_in_unit_;
  }
  if (service->backend_in_unit_ == nullptr) {
    service->backend_in_unit_ = service->backend_out_unit_;
  }

  // Pooled mode: one striped BackendPool shared by every client graph —
  // request deadlines and circuit breakers come from the pool. The codecs
  // speak the backend channel's declared types.
  if (service->options_.wire.mode == BackendMode::kPooled &&
      !service->backend_ports_.empty() && service->backend_out_unit_ != nullptr) {
    const grammar::Unit* out_unit = service->backend_out_unit_;
    const grammar::Unit* in_unit = service->backend_in_unit_;
    BackendPoolConfig cfg;
    cfg.ports = service->backend_ports_;
    service->options_.wire.ApplyTo(cfg);
    cfg.make_serializer = [out_unit] {
      return std::make_unique<runtime::GrammarSerializer>(out_unit);
    };
    cfg.make_deserializer = [in_unit] {
      return std::make_unique<runtime::GrammarDeserializer>(in_unit);
    };
    service->pool_ = std::make_unique<BackendPool>(std::move(cfg));
  }
  return Result<std::unique_ptr<DslService>>(std::move(service));
}

runtime::ComputeTask::Handler DslService::BuildHandler(const lang::ProcWiring& wiring,
                                                       runtime::PlatformEnv& env) {
  const lang::DslDispatchCounters counters{&registry_.dsl_counters().lowered_msgs,
                                           &registry_.dsl_counters().interp_fallbacks};
  if (options_.lower) {
    return lang::MakeLoweredProcHandler(program_, proc_, wiring, env.state,
                                        proc_->name, counters);
  }
  // Interpreter arm (the ablation baseline): an empty plan sends every data
  // message through the bounded evaluator, accounted as a fallback.
  return lang::MakePlanHandler(
      lang::ProcPlan{}, env.state,
      lang::MakeProcHandler(program_, proc_, wiring, env.state, proc_->name), counters);
}

void DslService::OnConnection(std::unique_ptr<Connection> conn,
                              runtime::PlatformEnv& env) {
  const size_t n = backend_ports_.size();

  // Wiring: compute input 0 / output 0 = client; 1..n = backends — realised
  // below by edge declaration order on the proc stage.
  lang::ProcWiring wiring;
  wiring.endpoints[client_param_].inputs = {0};
  wiring.endpoints[client_param_].outputs = {0};
  for (size_t i = 0; i < n; ++i) {
    wiring.endpoints[backends_param_].inputs.push_back(1 + i);
    wiring.endpoints[backends_param_].outputs.push_back(1 + i);
  }

  GraphBuilder b(name_, env);
  // Full wire plumbing: batching/fill on every leg plus the lifetime
  // overrides (idle_timeout_ns / header_deadline_ns) for the adopted client
  // and any dedicated backend legs.
  options_.wire.ApplyTo(b);
  auto client = b.Adopt(std::move(conn));

  auto request = b.Source(
      "client-in", client,
      std::make_unique<runtime::GrammarDeserializer>(client_in_unit_));
  auto proc = b.Stage("proc:" + proc_->name, BuildHandler(wiring, env))
                  .From(request);  // proc input 0
  b.Sink("client-out", client,
         std::make_unique<runtime::GrammarSerializer>(client_out_unit_))
      .From(proc);  // proc output 0

  if (n > 0) {
    if (pool_ != nullptr) {
      // Pooled legs: leased slices of the shared striped wires. Lease or
      // start failure poisons the builder; Launch() below then returns the
      // lease and closes the client.
      auto legs = b.FanOutPooled(*pool_, /*capacity=*/64);
      for (auto& leg : legs) {
        leg.sink.From(proc);  // proc outputs 1..n
      }
      for (auto& leg : legs) {
        proc.From(leg.source);  // proc inputs 1..n
      }
    } else {
      // kPerClient: the paper's original dedicated-connection shape.
      const grammar::Unit* out_unit = backend_out_unit_;
      const grammar::Unit* in_unit = backend_in_unit_;
      auto legs = b.FanOut(
          backend_ports_, "backend",
          [out_unit] { return std::make_unique<runtime::GrammarSerializer>(out_unit); },
          [in_unit] { return std::make_unique<runtime::GrammarDeserializer>(in_unit); },
          /*capacity=*/64);
      for (auto& leg : legs) {
        leg.sink.From(proc);  // proc outputs 1..n
      }
      for (auto& leg : legs) {
        proc.From(leg.source);  // proc inputs 1..n
      }
    }
  }

  if (const Status launched = b.Launch(registry_); !launched.ok()) {
    // Launch already closed every leg (client conn included) and returned
    // any pool leases; all that is left is to account for the failure.
    registry_.CountLaunchFailure();
  }
}

}  // namespace flick::services
